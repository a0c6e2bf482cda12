//! Chaos test for the process backend: SIGKILL a worker mid-run, observe a
//! typed fault (not a panic, not a hang), then resume the whole world from
//! the last committed per-shard checkpoint at the exact step it was taken.
//!
//! Resume-vs-clean is *not* bitwise: the resumed world rebuilds its
//! neighbor lists at the restart step, so the rebuild cadence differs from
//! an uninterrupted run and summation order shifts within the 1e-10
//! conformance envelope. Resume-vs-resume, with identical cadence, must be
//! bitwise.

use md_geometry::Vec3;
use md_potential::AnalyticEam;
use md_sim::{PotentialChoice, Simulation, StrategyKind, System};
use md_shard::{Codec, ProcessWorld, ShardFault, WorldSpec};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FE_MASS: f64 = 55.845;
const CELLS: usize = 5;
const SKIN: f64 = 0.05;
const DT: f64 = 0.002;
const SHARDS: usize = 2;

fn worker_path() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_mdshard-worker"))
}

fn scratch(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mdshard-chaos-{}-{label}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// The seeded start state: same construction as the conformance battery's
/// melt workload, so thermal drift breaches the tight skin within the run.
fn start_system() -> System {
    let (bx, pos) = md_geometry::LatticeSpec::bcc_fe(CELLS).build();
    let sim = Simulation::from_system(System::new(bx, pos, FE_MASS))
        .potential_choice(PotentialChoice::Eam(Arc::new(AnalyticEam::fe())))
        .strategy(StrategyKind::Sdc { dims: 2 })
        .threads(1)
        .skin(SKIN)
        .dt(DT)
        .temperature(300.0)
        .seed(7)
        .build()
        .expect("seed build");
    sim.system().clone()
}

fn spec() -> WorldSpec {
    WorldSpec {
        potential: "fe".to_string(),
        tabulated: false,
        fused: true,
        simd: true,
        strategy: "sdc2d".to_string(),
        threads: 1,
        skin: SKIN,
        dt: DT,
        mass: FE_MASS,
    }
}

fn spawn(start: &System, label: &str) -> (ProcessWorld, PathBuf) {
    let socks = scratch(label);
    let world = ProcessWorld::spawn(start, &spec(), SHARDS, worker_path(), &socks, Codec::Binary)
        .expect("spawn workers");
    (world, socks)
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

fn assert_bitwise(a: &[Vec3], b: &[Vec3], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: atom count");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        for d in 0..3 {
            assert_eq!(x[d].to_bits(), y[d].to_bits(), "{what}: atom {i} component {d}");
        }
    }
}

#[test]
fn killed_worker_faults_and_checkpoint_resumes_at_the_exact_step() {
    let start = start_system();
    let sim_box = *start.sim_box();
    let ckpt = scratch("ckpt");

    // Uninterrupted reference over the process backend.
    let (mut clean, clean_socks) = spawn(&start, "clean");
    clean.refresh_forces().expect("clean refresh");
    clean.run(10).expect("clean run");
    let (clean_pos, clean_vel) = clean.gather().expect("clean gather");
    clean.shutdown();
    let _ = std::fs::remove_dir_all(&clean_socks);

    // Chaos run: checkpoint at step 5, advance past it, then SIGKILL a
    // worker. The next step must surface a typed fault on that rank.
    let (mut chaos, chaos_socks) = spawn(&start, "chaos");
    chaos.refresh_forces().expect("chaos refresh");
    chaos.run(5).expect("chaos run to checkpoint");
    chaos.save_checkpoint(&ckpt).expect("checkpoint");
    chaos.run(2).expect("chaos run past checkpoint");
    chaos.kill_worker(1).expect("kill worker 1");
    let fault = chaos.step().expect_err("stepping a dead worker must fail");
    match fault {
        ShardFault::TransportClosed { rank } => assert_eq!(rank, 1, "fault rank"),
        // A racing write can surface as a raw I/O error instead of the
        // clean close; both are typed, neither is a panic or a hang.
        ShardFault::Io { rank, .. } => assert_eq!(rank, 1, "fault rank"),
        other => panic!("unexpected fault flavor: {other}"),
    }
    drop(chaos); // reaps the surviving worker
    let _ = std::fs::remove_dir_all(&chaos_socks);

    // Resume from the committed generation: fresh workers, exact step.
    let resume_socks = scratch("resume");
    let mut resumed = ProcessWorld::resume(
        &ckpt,
        sim_box,
        &spec(),
        SHARDS,
        worker_path(),
        &resume_socks,
    )
    .expect("resume");
    assert_eq!(resumed.step_count(), 5, "resume step");
    resumed.refresh_forces().expect("resumed refresh");
    resumed.run(5).expect("resumed run");
    assert_eq!(resumed.step_count(), 10);
    let (res_pos, res_vel) = resumed.gather().expect("resumed gather");
    resumed.shutdown();
    let _ = std::fs::remove_dir_all(&resume_socks);

    assert_close(&clean_pos, &res_pos, 1e-10, "resume-vs-clean pos");
    assert_close(&clean_vel, &res_vel, 1e-10, "resume-vs-clean vel");

    // Determinism of the recovery path itself: a second resume from the
    // same generation replays the first bit for bit.
    let again_socks = scratch("again");
    let mut again =
        ProcessWorld::resume(&ckpt, sim_box, &spec(), SHARDS, worker_path(), &again_socks)
            .expect("second resume");
    again.refresh_forces().expect("second resumed refresh");
    again.run(5).expect("second resumed run");
    let (again_pos, again_vel) = again.gather().expect("second gather");
    again.shutdown();
    let _ = std::fs::remove_dir_all(&again_socks);
    let _ = std::fs::remove_dir_all(&ckpt);

    assert_bitwise(&res_pos, &again_pos, "resume-vs-resume pos");
    assert_bitwise(&res_vel, &again_vel, "resume-vs-resume vel");
}
