//! Sharded halo-exchange conformance battery (virtual ranks).
//!
//! Splitting the box into slab shards must not change the physics. Three
//! workloads — a thermal melt, a carved void, and an energetic impact —
//! run under 1, 2 and 4 virtual ranks at 1 and 2 worker threads each:
//!
//! 1. **Single shard is bitwise**: one shard runs the exact engine stack
//!    the unsharded `Simulation` runs, in the same order, so its
//!    trajectory must match the reference bit for bit.
//! 2. **Multi-shard is conformant**: 2 and 4 shards change only the
//!    summation order inside ghost regions, so every coordinate stays
//!    within 1e-10 of the unsharded trajectory over a short run.
//! 3. **Fixed shard count is deterministic**: repeating a run at the same
//!    shard count reproduces the trajectory bitwise.
//!
//! The Verlet skin is deliberately tight (0.05 Å) so thermal drift forces
//! neighbor-list rebuilds — and with them atom migration across slab
//! boundaries — inside the short runs.

use md_geometry::Vec3;
use md_potential::AnalyticEam;
use md_shard::{ShardStats, ShardWorld, WorldSpec};
use md_sim::{PotentialChoice, Simulation, StrategyKind, System};
use std::sync::Arc;

const FE_MASS: f64 = 55.845;
const CELLS: usize = 5;
const SKIN: f64 = 0.05;
const DT: f64 = 0.002;
const STEPS: u64 = 6;

#[derive(Clone, Copy, Debug)]
enum Workload {
    Melt,
    Void,
    Impact,
}

const WORKLOADS: [Workload; 3] = [Workload::Melt, Workload::Void, Workload::Impact];

fn base_system(workload: Workload) -> System {
    let (bx, pos) = md_geometry::LatticeSpec::bcc_fe(CELLS).build();
    let pos = match workload {
        Workload::Void => {
            let l = bx.lengths();
            let center = Vec3::new(l.x * 0.25, l.y * 0.25, l.z * 0.25);
            let radius = l.x * 0.2;
            pos.into_iter()
                .filter(|p| (*p - center).norm() > radius)
                .collect()
        }
        _ => pos,
    };
    System::new(bx, pos, FE_MASS)
}

/// The unsharded reference at step 0: velocities seeded, impact applied,
/// forces fresh. The same state seeds every shard world.
///
/// Both sides run SAP: the 5-cell box hosts no SDC decomposition, and the
/// fallback (striped locks) adds in scheduling order, while SAP's sums are
/// fixed for a given thread count — which the bitwise checks need.
fn reference(workload: Workload, threads: usize) -> Simulation {
    let mut sim = Simulation::from_system(base_system(workload))
        .potential_choice(PotentialChoice::Eam(Arc::new(AnalyticEam::fe())))
        .strategy(StrategyKind::Privatized)
        .threads(threads)
        .skin(SKIN)
        .dt(DT)
        .temperature(300.0)
        .seed(7)
        .build()
        .expect("reference build");
    if let Workload::Impact = workload {
        let l = sim.system().sim_box().lengths();
        let center = Vec3::new(l.x * 0.75, l.y * 0.75, l.z * 0.75);
        let radius = l.x * 0.15;
        let positions = sim.system().positions().to_vec();
        let mut struck = 0;
        for (i, p) in positions.iter().enumerate() {
            if (*p - center).norm() < radius {
                sim.system_mut().velocities_mut()[i] *= 4.0;
                struck += 1;
            }
        }
        assert!(struck > 0, "impact cluster is empty");
        sim.refresh_forces();
    }
    sim
}

fn spec(threads: usize) -> WorldSpec {
    WorldSpec {
        potential: "fe".to_string(),
        tabulated: false,
        fused: true,
        simd: true,
        strategy: "sap".to_string(),
        threads,
        skin: SKIN,
        dt: DT,
        mass: FE_MASS,
    }
}

fn run_world(start: &System, threads: usize, shards: usize) -> (Vec<Vec3>, Vec<Vec3>, ShardStats) {
    let mut world = ShardWorld::virtual_world(start, &spec(threads), shards).expect("world boot");
    world.refresh_forces().expect("refresh");
    world.run(STEPS).expect("run");
    assert_eq!(world.step_count(), STEPS);
    let (pos, vel) = world.gather().expect("gather");
    let stats = world.stats().expect("stats");
    world.shutdown();
    (pos, vel, stats)
}

fn assert_bitwise(a: &[Vec3], b: &[Vec3], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: atom count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for d in 0..3 {
            assert_eq!(
                x[d].to_bits(),
                y[d].to_bits(),
                "{what}: atom {i} component {d}: {} vs {}",
                x[d],
                y[d]
            );
        }
    }
}

fn assert_close(a: &[Vec3], b: &[Vec3], tol: f64, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: atom count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for d in 0..3 {
            assert!(
                (x[d] - y[d]).abs() <= tol,
                "{what}: atom {i} component {d}: {} vs {}",
                x[d],
                y[d]
            );
        }
    }
}

#[test]
fn single_shard_replays_the_unsharded_engine_bitwise() {
    for workload in WORKLOADS {
        for threads in [1usize, 2] {
            let mut sim = reference(workload, threads);
            let start = sim.system().clone();
            sim.run(STEPS as usize);
            let (pos, vel, _) = run_world(&start, threads, 1);
            let what = format!("{workload:?} t{threads} 1-shard");
            assert_bitwise(sim.system().positions(), &pos, &format!("{what} pos"));
            assert_bitwise(sim.system().velocities(), &vel, &format!("{what} vel"));
        }
    }
}

#[test]
fn multi_shard_trajectories_conform_to_the_unsharded_reference() {
    for workload in WORKLOADS {
        for threads in [1usize, 2] {
            let mut sim = reference(workload, threads);
            let start = sim.system().clone();
            sim.run(STEPS as usize);
            for shards in [2usize, 4] {
                let (pos, _, stats) = run_world(&start, threads, shards);
                let what = format!("{workload:?} t{threads} {shards}-shard");
                assert_close(sim.system().positions(), &pos, 1e-10, &what);
                // The battery must actually exercise the halo machinery:
                // ghosts flow every step, every export a peer ships is
                // installed at exactly one receiver (Σ sent == Σ
                // installed), and the tight skin forces at least one
                // rebuild (hence migration checks).
                assert!(stats.ghost_sent > 0, "{what}: no ghosts shipped");
                assert_eq!(
                    stats.ghost_sent, stats.ghost_installed,
                    "{what}: mesh lost or duplicated ghosts"
                );
                assert!(stats.rebuilds > 0, "{what}: skin never triggered a rebuild");
            }
        }
    }
}

#[test]
fn fixed_shard_count_is_bitwise_reproducible() {
    let workload = Workload::Melt;
    for shards in [2usize, 4] {
        let sim = reference(workload, 2);
        let start = sim.system().clone();
        let (pos_a, vel_a, stats_a) = run_world(&start, 2, shards);
        let (pos_b, vel_b, stats_b) = run_world(&start, 2, shards);
        let what = format!("{shards}-shard repeat");
        assert_bitwise(&pos_a, &pos_b, &format!("{what} pos"));
        assert_bitwise(&vel_a, &vel_b, &format!("{what} vel"));
        assert_eq!(
            stats_a.rebuilds, stats_b.rebuilds,
            "{what}: rebuild cadence"
        );
        assert_eq!(
            stats_a.migrated, stats_b.migrated,
            "{what}: migration count"
        );
    }
}

#[test]
fn migration_moves_atoms_across_slab_boundaries() {
    // The melt's boundary-plane atoms sit exactly on the 2-shard slab
    // boundary; thermal jitter pushes some across at the first rebuild.
    let sim = reference(Workload::Melt, 1);
    let start = sim.system().clone();
    let (_, _, stats) = run_world(&start, 1, 2);
    assert!(stats.rebuilds > 0, "no rebuild in the melt run");
    assert!(
        stats.migrated > 0,
        "rebuilds happened but no atom changed owner"
    );
}
