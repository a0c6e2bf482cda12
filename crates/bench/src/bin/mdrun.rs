//! `mdrun` — a general-purpose MD runner over the `sdc-md` stack: pick a
//! material and strategy, run, dump trajectories/logs/checkpoints.
//!
//! ```text
//! cargo run -p sdc-bench --release --bin mdrun -- \
//!     --potential fe --cells 12 --strategy sdc3d --threads 4 \
//!     --temperature 300 --steps 200 --report 50 \
//!     --dump traj.xyz --log thermo.csv --checkpoint final.ckpt
//!
//! # continue a previous run:
//! cargo run -p sdc-bench --release --bin mdrun -- \
//!     --restart final.ckpt --potential fe --strategy sap --steps 100
//!
//! # supervised run: periodic atomic checkpoints + rollback on faults:
//! cargo run -p sdc-bench --release --bin mdrun -- \
//!     --cells 12 --steps 2000 --recover --checkpoint-every 200 \
//!     --checkpoint run.ckpt --max-retries 3
//! ```
//!
//! Potentials: `fe` (BCC iron EAM), `cu` (FCC copper EAM), `lj` (argon).
//! Strategies: serial, sdc1d, sdc2d, sdc3d, taskgraph1d, taskgraph2d,
//! taskgraph3d, cs, atomic, locks, localwrite, sap, rc (`taskgraphNd` runs
//! the `sdcNd` plan on the dependency-graph scheduler, with the same
//! results bit for bit). Thermostats: `none`, `rescale:T:N`,
//! `berendsen:T:tau`, `langevin:T:tau`.
//!
//! Bad arguments never panic: the process prints what was wrong with which
//! flag, shows the usage summary, and exits with status 2.

use md_geometry::{Lattice, LatticeSpec};
use md_potential::{AnalyticEam, LennardJones, TabulatedEam};
use md_sim::analysis::ThermoAverager;
use md_sim::checkpoint::{load_checkpoint, save_checkpoint, sweep_stale_tmp};
use md_sim::health::RecoveryConfig;
use md_sim::output::{ThermoLog, XyzWriter};
use md_perfmodel::{MachineParams, ObservedImbalance, ObservedMakespan};
use md_sim::metrics::report::{RunInfo, RunReport};
use md_shard::{ProcessWorld, ShardFault, ShardWorld};
use md_sim::{Simulation, StrategyKind, Thermo, Thermostat};
use sdc_bench::Args;
use std::path::{Path, PathBuf};

const USAGE: &str = "\
usage: mdrun [options]
  --potential fe|cu|lj      material (default fe)
  --cells N                 lattice cells per edge (default 10)
  --strategy NAME           serial|sdc1d|sdc2d|sdc3d|taskgraph1d|
                            taskgraph2d|taskgraph3d|cs|atomic|locks|
                            localwrite|sap|rc (default sdc3d; infeasible
                            SDC degrades automatically)
  --void                    carve a spherical void out of the fresh lattice
                            (the non-uniform-density benchmark workload)
  --threads N               worker threads (default 4)
  --temperature T           initial temperature, K (default 300)
  --steps N                 time-steps (default 100)
  --dt PS                   time-step, ps (default 1e-3)
  --report N                thermo print cadence (default 20)
  --seed N                  velocity RNG seed (default 42)
  --thermostat SPEC         none|rescale:T:N|berendsen:T:tau|langevin:T:tau
  --reorder                 enable spatial data reordering
  --tabulated               evaluate the EAM through cubic-spline tables
                            instead of the analytic forms (fe/cu only)
  --restart PATH            continue from a checkpoint file
  --dump PATH               write an .xyz trajectory
  --log PATH                write a thermo CSV
  --checkpoint PATH         checkpoint file (final state; with
                            --checkpoint-every/--recover also periodic)
  --checkpoint-every N      save a checkpoint every N steps (atomic write)
  --metrics-out PATH        record per-color/per-thread metrics and write a
                            machine-readable JSON run report
  --balance                 cost-guided SDC load balancing: LPT task order,
                            plan search over dims/caps, mid-run re-planning
                            (sdcNd and taskgraphNd only; keeps the regime)
  --recover                 run under fault supervision: roll back to the
                            last checkpoint and retry with a smaller dt
  --max-retries N           fault retries before giving up (default 3)
  --shards N                split the box into N slab shards running the
                            halo-exchange protocol (NVE only; --checkpoint
                            then names a directory of per-shard files)
  --shard-backend MODE      virtual (in-process ranks, default) or process
                            (one mdshard-worker per shard over sockets)";

const KNOWN_FLAGS: &[&str] = &[
    "--potential",
    "--cells",
    "--strategy",
    "--void",
    "--threads",
    "--temperature",
    "--steps",
    "--dt",
    "--report",
    "--seed",
    "--thermostat",
    "--reorder",
    "--tabulated",
    "--restart",
    "--dump",
    "--log",
    "--checkpoint",
    "--checkpoint-every",
    "--metrics-out",
    "--balance",
    "--recover",
    "--max-retries",
    "--shards",
    "--shard-backend",
];

fn parse_thermostat(spec: &str) -> Result<Thermostat, String> {
    let parts: Vec<&str> = spec.split(':').collect();
    let num = |tok: &str, what: &str| -> Result<f64, String> {
        tok.parse()
            .map_err(|_| format!("invalid {what} '{tok}' in thermostat spec '{spec}'"))
    };
    match parts.as_slice() {
        ["none"] => Ok(Thermostat::None),
        ["rescale", t, every] => Ok(Thermostat::Rescale {
            target: num(t, "target")?,
            every: every
                .parse()
                .map_err(|_| format!("invalid period '{every}' in thermostat spec '{spec}'"))?,
        }),
        ["berendsen", t, tau] => Ok(Thermostat::Berendsen {
            target: num(t, "target")?,
            tau: num(tau, "tau")?,
        }),
        ["langevin", t, tau] => Ok(Thermostat::Langevin {
            target: num(t, "target")?,
            tau: num(tau, "tau")?,
            seed: 1729,
        }),
        _ => Err(format!(
            "unknown thermostat spec '{spec}' (none | rescale:T:N | berendsen:T:tau | langevin:T:tau)"
        )),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let unknown = args.unknown_flags(KNOWN_FLAGS);
    if !unknown.is_empty() {
        return Err(format!("unknown flag '{}'", unknown[0]));
    }
    let potential = args.get_str("--potential").unwrap_or("fe").to_string();
    let cells: usize = args.try_get_or("--cells", 10)?;
    let strategy = match args.get_str("--strategy") {
        Some(s) => StrategyKind::parse(s).ok_or_else(|| {
            format!("unknown strategy '{s}' for flag '--strategy' (serial|sdc1d|sdc2d|sdc3d|taskgraph1d|taskgraph2d|taskgraph3d|cs|atomic|locks|localwrite|sap|rc)")
        })?,
        None => StrategyKind::Sdc { dims: 3 },
    };
    let threads: usize = args.try_get_or("--threads", 4)?;
    let temperature: f64 = args.try_get_or("--temperature", 300.0)?;
    let steps: usize = args.try_get_or("--steps", 100)?;
    let dt: f64 = args.try_get_or("--dt", 1e-3)?;
    let report: usize = args.try_get_or("--report", 20)?;
    let seed: u64 = args.try_get_or("--seed", 42)?;
    let thermostat = parse_thermostat(args.get_str("--thermostat").unwrap_or("none"))?;
    let reorder = args.flag("--reorder");
    let tabulated = args.flag("--tabulated");
    let checkpoint_every: usize = args.try_get_or("--checkpoint-every", 0)?;
    let metrics_out: Option<PathBuf> = args.get_str("--metrics-out").map(PathBuf::from);
    let balance = args.flag("--balance");
    let recover = args.flag("--recover");
    let max_retries: usize = args.try_get_or("--max-retries", 3)?;
    let shards: usize = args.try_get_or("--shards", 0)?;
    let shard_backend = args.get_str("--shard-backend").unwrap_or("virtual");
    if args.get_str("--shard-backend").is_some() && shards == 0 {
        return Err("--shard-backend needs --shards N".to_string());
    }
    if shards > 0 {
        if !matches!(shard_backend, "virtual" | "process") {
            return Err(format!(
                "unknown backend '{shard_backend}' for flag '--shard-backend' (virtual | process)"
            ));
        }
        // Full audit of every flag against the sharded driver. Honored:
        // --potential/--cells/--void/--tabulated/--temperature/--seed (they
        // shape the initial state the driver inherits), --strategy (barriered
        // kinds), --threads/--steps/--dt/--report, --dump,
        // --checkpoint/--checkpoint-every (per-shard directory),
        // --metrics-out, --shard-backend. Everything else is a
        // single-process convenience that reaches into the Simulation's
        // internals and is rejected explicitly below — silently ignoring a
        // flag the user asked for is the bug this audit fixes.
        if matches!(strategy, StrategyKind::TaskGraph { .. }) {
            return Err(format!(
                "the task-graph scheduler ('{strategy}') is not supported with --shards; \
                 pick a barriered strategy (e.g. sdc2d) for the per-shard engines"
            ));
        }
        for (on, flag) in [
            (args.get_str("--restart").is_some(), "--restart"),
            (recover, "--recover"),
            (args.get_str("--max-retries").is_some(), "--max-retries"),
            (balance, "--balance"),
            (reorder, "--reorder"),
            (args.get_str("--log").is_some(), "--log"),
            (!matches!(thermostat, Thermostat::None), "--thermostat"),
        ] {
            if on {
                return Err(format!("{flag} is not supported with --shards"));
            }
        }
    }
    let checkpoint_path: Option<PathBuf> = args
        .get_str("--checkpoint")
        .map(PathBuf::from)
        .or_else(|| {
            // Supervised or periodic checkpointing needs *somewhere* to write.
            (recover || checkpoint_every > 0).then(|| PathBuf::from("mdrun.ckpt"))
        });
    // Supervised / periodic checkpointing without a resolvable path is a
    // usage error, reported here once instead of trusted deep in the run
    // loop (the default above makes this unreachable today, but the run
    // loop must not have to rely on that).
    if (recover || checkpoint_every > 0) && checkpoint_path.is_none() {
        return Err(
            "--recover/--checkpoint-every need a checkpoint path (--checkpoint PATH)".to_string(),
        );
    }
    // A crash during a previous run's atomic checkpoint write can leave a
    // stale `*.tmp` sibling; it is never a valid checkpoint, so sweep it
    // before any recovery machinery could be confused by it. (Sharded
    // checkpoints are directories that sweep their own stale temps.)
    if let Some(path) = checkpoint_path.as_ref().filter(|_| shards == 0) {
        if sweep_stale_tmp(path).map_err(|e| format!("cannot sweep stale checkpoint: {e}"))? {
            println!("swept stale checkpoint temp file next to '{}'", path.display());
        }
    }

    // Assemble the builder from either a restart file or a fresh lattice.
    let element;
    let builder = if let Some(ckpt) = args.get_str("--restart") {
        let (system, step) = load_checkpoint(ckpt)
            .map_err(|e| format!("cannot restart from '{ckpt}': {e}"))?;
        println!("restarted {} atoms from '{ckpt}' (step {step})", system.len());
        element = match potential.as_str() {
            "cu" => "Cu",
            "lj" => "Ar",
            _ => "Fe",
        };
        Simulation::from_system(system)
    } else {
        let (spec, elem, mass) = match potential.as_str() {
            "fe" => (LatticeSpec::bcc_fe(cells), "Fe", 55.845),
            "cu" => (LatticeSpec::new(Lattice::Fcc, 3.615, [cells; 3]), "Cu", 63.546),
            "lj" => (LatticeSpec::new(Lattice::Fcc, 5.27, [cells; 3]), "Ar", 39.948),
            other => return Err(format!("unknown potential '{other}' for flag '--potential' (fe | cu | lj)")),
        };
        element = elem;
        if args.flag("--void") {
            // The carved-void workload of the load-balance suite: remove a
            // sphere of radius 0.2·L centred in one octant so per-subdomain
            // pair counts skew.
            let (bx, pos) = spec.build();
            let l = bx.lengths();
            let center = md_geometry::Vec3::new(l.x * 0.25, l.y * 0.25, l.z * 0.25);
            let radius = l.x * 0.2;
            let kept: Vec<md_geometry::Vec3> = pos
                .into_iter()
                .filter(|p| (*p - center).norm() > radius)
                .collect();
            println!(
                "{element}: {} atoms ({cells}³ cells, carved void), strategy {strategy}, {threads} threads",
                kept.len()
            );
            Simulation::from_system(md_sim::System::new(bx, kept, mass)).temperature(temperature)
        } else {
            println!(
                "{element}: {} atoms ({cells}³ cells), strategy {strategy}, {threads} threads",
                spec.atom_count()
            );
            Simulation::builder(spec).mass(mass).temperature(temperature)
        }
    };

    let builder = match (potential.as_str(), tabulated) {
        ("fe", false) => builder.potential(AnalyticEam::fe()),
        ("cu", false) => builder.potential(AnalyticEam::cu()),
        ("fe", true) | ("cu", true) => {
            let src = if potential == "fe" { AnalyticEam::fe() } else { AnalyticEam::cu() };
            builder.potential(TabulatedEam::standard(&src, src.rho_e()))
        }
        ("lj", false) => builder.pair_potential(LennardJones::new(0.0104, 3.4, 8.5)),
        ("lj", true) => {
            return Err("--tabulated requires an EAM potential (fe | cu)".to_string())
        }
        _ => unreachable!(),
    };
    let mut sim = builder
        .strategy(strategy)
        .threads(threads)
        .dt(dt)
        .seed(seed)
        .thermostat(thermostat)
        .reorder(reorder)
        .metrics(metrics_out.is_some())
        .balance(balance)
        .build()
        .map_err(|e| format!("cannot build simulation: {e}"))?;
    for event in sim.downgrades() {
        println!("warning: {event}");
    }
    if shards > 0 {
        // The builder above produced the exact initial state an unsharded
        // run would start from (lattice, seeded velocities, void); the
        // sharded driver takes it from here.
        let spec = md_shard::WorldSpec {
            potential: potential.clone(),
            tabulated,
            // Ignored: every shard runs the one EAM path (the fields stay
            // only because perfbench names them).
            fused: true,
            simd: true,
            strategy: sim.engine().strategy().name().to_string(),
            threads,
            skin: 0.3,
            dt,
            mass: match potential.as_str() {
                "cu" => 63.546,
                "lj" => 39.948,
                _ => 55.845,
            },
        };
        return run_sharded(&sim, &ShardRun {
            shards,
            backend: shard_backend,
            spec,
            steps,
            report,
            dump: args.get_str("--dump"),
            element,
            checkpoint: checkpoint_path,
            checkpoint_every,
            metrics_out,
        });
    }
    if balance {
        match sim.engine().plan_choice() {
            Some(choice) => println!(
                "balance: {} subdomains {:?}{}, predicted {:.3e} s/step, imbalance {:.3}",
                sim.engine().strategy(),
                choice.counts,
                match choice.max_per_axis {
                    Some(cap) => format!(" (cap {cap}/axis)"),
                    None => String::new(),
                },
                choice.predicted_seconds,
                choice.predicted_imbalance
            ),
            None => println!(
                "balance: inactive ({} is not an SDC strategy)",
                sim.engine().strategy()
            ),
        }
    }

    let mut traj = match args.get_str("--dump") {
        Some(p) => Some(
            XyzWriter::create(p, element)
                .map_err(|e| format!("cannot open trajectory '{p}': {e}"))?,
        ),
        None => None,
    };
    let mut log = match args.get_str("--log") {
        Some(p) => {
            Some(ThermoLog::create(p).map_err(|e| format!("cannot open log '{p}': {e}"))?)
        }
        None => None,
    };

    println!("{}", Thermo::header());
    println!("{}", sim.thermo());
    let mut averages = ThermoAverager::new();

    if recover {
        let cfg = RecoveryConfig {
            checkpoint_every: if checkpoint_every > 0 { checkpoint_every } else { 100 },
            checkpoint_path: checkpoint_path.clone(),
            max_retries,
            ..RecoveryConfig::default()
        };
        let report = sim
            .run_with_recovery(steps, &cfg)
            .map_err(|e| format!("supervised run failed: {e}"))?;
        let t = sim.thermo();
        println!("{t}");
        averages.push(&t);
        println!(
            "recovery: {} steps, {} checkpoints, {} rollbacks, final dt {:.2e} ps",
            report.steps_completed, report.checkpoints_taken, report.rollbacks, report.final_dt
        );
        for record in &report.faults {
            println!("  fault (retry {}): {}", record.retry, record.fault);
        }
    } else {
        let report_every = report.max(1);
        for k in 1..=steps {
            sim.step();
            if k % report_every == 0 || k == steps {
                let t = sim.thermo();
                println!("{t}");
                averages.push(&t);
                if let Some(w) = traj.as_mut() {
                    w.write_frame(sim.system(), t.step)
                        .map_err(|e| format!("trajectory write failed: {e}"))?;
                }
                if let Some(l) = log.as_mut() {
                    l.log(&t).map_err(|e| format!("log write failed: {e}"))?;
                }
            }
            if checkpoint_every > 0 && k % checkpoint_every == 0 {
                let path = checkpoint_path.as_deref().ok_or(
                    "--checkpoint-every needs a checkpoint path (--checkpoint PATH)",
                )?;
                save_checkpoint(path, sim.system(), sim.step_count())
                    .map_err(|e| format!("checkpoint write failed: {e}"))?;
            }
        }
    }
    if let Some(mut w) = traj {
        w.flush().map_err(|e| format!("trajectory flush failed: {e}"))?;
        println!("wrote {} trajectory frames", w.frames());
    }
    if let Some(mut l) = log {
        l.flush().map_err(|e| format!("log flush failed: {e}"))?;
    }
    println!("\n{averages}");
    println!("\nphase timing:\n{}", sim.timers());
    for event in sim.rebalances() {
        println!("balance: {event}");
    }

    if let Some(path) = &metrics_out {
        emit_metrics_report(&sim, path, dt)?;
    }

    if let Some(path) = &checkpoint_path {
        save_checkpoint(path, sim.system(), sim.step_count())
            .map_err(|e| format!("checkpoint write failed: {e}"))?;
        println!("checkpoint saved to '{}'", path.display());
    }
    Ok(())
}

/// Configuration of the `--shards` driver path.
struct ShardRun<'a> {
    shards: usize,
    backend: &'a str,
    spec: md_shard::WorldSpec,
    steps: usize,
    report: usize,
    dump: Option<&'a str>,
    element: &'a str,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    metrics_out: Option<PathBuf>,
}

/// The two shard backends behind one stepping interface. The process
/// variant keeps its socket rendezvous directory alive until shutdown.
enum WorldHandle {
    Virtual(ShardWorld),
    Process(ProcessWorld, PathBuf),
}

impl WorldHandle {
    fn world(&mut self) -> &mut ShardWorld {
        match self {
            WorldHandle::Virtual(w) => w,
            WorldHandle::Process(p, _) => p.world(),
        }
    }

    fn finish(self) {
        match self {
            WorldHandle::Virtual(mut w) => w.shutdown(),
            WorldHandle::Process(p, dir) => {
                p.shutdown();
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

/// Runs the halo-exchange decomposition: `sim` provides the exact initial
/// state an unsharded run would start from; the driver relays the shard
/// protocol (see `md-shard`) for `steps` NVE steps.
fn run_sharded(sim: &Simulation, cfg: &ShardRun) -> Result<(), String> {
    let fail = |e: ShardFault| format!("sharded run failed: {e}");
    let mut handle = match cfg.backend {
        "process" => {
            let worker = md_shard::proc::default_worker_path()?;
            let sock_dir = std::env::temp_dir().join(format!("mdshard-{}", std::process::id()));
            let world = ProcessWorld::spawn(
                sim.system(),
                &cfg.spec,
                cfg.shards,
                &worker,
                &sock_dir,
                md_shard::Codec::Binary,
            )
            .map_err(fail)?;
            WorldHandle::Process(world, sock_dir)
        }
        _ => WorldHandle::Virtual(
            ShardWorld::virtual_world(sim.system(), &cfg.spec, cfg.shards).map_err(fail)?,
        ),
    };
    let world = handle.world();
    println!(
        "sharded: {} slab{} along x ({} backend), skin {} Å",
        world.shards(),
        if world.shards() == 1 { "" } else { "s" },
        cfg.backend,
        cfg.spec.skin
    );
    if cfg.metrics_out.is_some() {
        world.enable_metrics();
    }
    world.refresh_forces().map_err(fail)?;

    let mut traj = match cfg.dump {
        Some(p) => Some(
            XyzWriter::create(p, cfg.element)
                .map_err(|e| format!("cannot open trajectory '{p}': {e}"))?,
        ),
        None => None,
    };
    println!("{:>8} {:>12} {:>14}", "step", "T(K)", "KE(eV)");
    let report_every = cfg.report.max(1);
    for k in 1..=cfg.steps {
        world.step().map_err(fail)?;
        if k % report_every == 0 || k == cfg.steps {
            let sys = world.gather_system().map_err(fail)?;
            println!(
                "{:>8} {:>12.2} {:>14.4}",
                world.step_count(),
                sys.temperature(),
                sys.kinetic_energy()
            );
            if let Some(w) = traj.as_mut() {
                w.write_frame(&sys, world.step_count() as usize)
                    .map_err(|e| format!("trajectory write failed: {e}"))?;
            }
        }
        if cfg.checkpoint_every > 0 && k % cfg.checkpoint_every == 0 {
            let dir = cfg
                .checkpoint
                .as_deref()
                .ok_or("--checkpoint-every needs a checkpoint path (--checkpoint PATH)")?;
            world.save_checkpoint(dir).map_err(fail)?;
        }
    }
    if let Some(mut w) = traj {
        w.flush().map_err(|e| format!("trajectory flush failed: {e}"))?;
        println!("wrote {} trajectory frames", w.frames());
    }
    let stats = world.stats().map_err(fail)?;
    println!(
        "halo: {} ghost exports shipped ({} installed), {} atoms migrated, {} rebuilds",
        stats.ghost_sent, stats.ghost_installed, stats.migrated, stats.rebuilds
    );
    println!(
        "wire: {} B sent / {} B received across peers, {:.3} ms on the wire, {:.3} ms compute wait",
        stats.wire_bytes_sent,
        stats.wire_bytes_recv,
        1e3 * stats.wire_seconds,
        1e3 * stats.compute_wait_seconds
    );
    let timers = world.merged_timers().map_err(fail)?;
    println!("\nphase timing (all shards):\n{timers}");

    if let Some(path) = &cfg.metrics_out {
        let metrics = world
            .metrics()
            .cloned()
            .ok_or("metrics layer was not enabled")?;
        let info = RunInfo {
            atoms: world.n_atoms(),
            steps: cfg.steps,
            threads: cfg.spec.threads,
            strategy: cfg.spec.strategy.clone(),
            dt_ps: cfg.spec.dt,
            balance: None,
            shards: Some(world.shards_info(cfg.backend).map_err(fail)?),
        };
        let report = RunReport::collect(&info, &timers, &metrics);
        report
            .write_to(path)
            .map_err(|e| format!("cannot write metrics report '{}': {e}", path.display()))?;
        println!("metrics report written to '{}'", path.display());
    }
    if let Some(dir) = &cfg.checkpoint {
        world.save_checkpoint(dir).map_err(fail)?;
        println!("checkpoint saved to '{}'", dir.display());
    }
    handle.finish();
    Ok(())
}

/// Writes the JSON run report and prints the observed-vs-modeled imbalance
/// summary (per-color walls, per-thread busy/wait, barrier-wait comparison
/// against the Table-1 machine constants).
fn emit_metrics_report(sim: &Simulation, path: &Path, dt: f64) -> Result<(), String> {
    let metrics = sim
        .metrics()
        .ok_or_else(|| "metrics layer was not enabled".to_string())?;
    let engine = sim.engine();
    let info = RunInfo {
        atoms: sim.system().len(),
        steps: sim.step_count(),
        threads: engine.threads(),
        strategy: engine.strategy().name().to_string(),
        dt_ps: dt,
        balance: engine.plan_choice().map(Into::into),
        shards: None,
    };
    let report = RunReport::collect(&info, sim.timers(), metrics);
    report
        .write_to(path)
        .map_err(|e| format!("cannot write metrics report '{}': {e}", path.display()))?;
    println!("metrics report written to '{}'", path.display());

    let scatter = &metrics.scatter;
    let busy: Vec<u64> = scatter.thread_busy_ns.iter().map(|c| c.get()).collect();
    let observed = ObservedImbalance::new(
        busy,
        scatter.total_color_wall_ns(),
        scatter.color_barriers.get(),
    );
    if scatter.tasks.get() > 0 {
        let h = &scatter.ready_latency;
        println!(
            "taskgraph: {} task completions, {} steals; ready latency mean {:.2} us, p50 {:.2} us, p99 {:.2} us",
            scatter.tasks.get(),
            scatter.steals.get(),
            h.mean_ns() * 1e-3,
            h.quantile_ns(0.5) as f64 * 1e-3,
            h.quantile_ns(0.99) as f64 * 1e-3,
        );
        println!(
            "graph regions: imbalance factor {:.3} (no color barriers under taskgraph)",
            observed.imbalance_factor()
        );
    }
    if observed.barriers > 0 {
        let machine = MachineParams::default();
        println!(
            "color regions: imbalance factor {:.3}, efficiency {:.1}%",
            observed.imbalance_factor(),
            100.0 * observed.efficiency()
        );
        println!(
            "barrier wait: observed {:.2} us/barrier vs model {:.2} us (ratio {:.2})",
            1e6 * observed.mean_barrier_wait_seconds(),
            1e6 * observed.predicted_barrier_wait_seconds(&machine),
            observed.barrier_wait_ratio(&machine)
        );
        if let Some(choice) = engine.plan_choice() {
            let walls: Vec<u64> = scatter
                .color_wall
                .iter()
                .filter(|h| h.count() > 0)
                .map(|h| h.sum_ns())
                .collect();
            let colors = walls.len() as u64;
            let sweeps = observed.barriers.checked_div(colors).unwrap_or(0);
            let makespan = ObservedMakespan::new(walls, sweeps);
            println!(
                "balance: busiest color observed {:.2} us/sweep (full sweep {:.2} us); \
                 predicted {:.3e} s/step, {} rebalances",
                1e6 * makespan.busiest_color_seconds(),
                1e6 * makespan.sweep_seconds(),
                choice.predicted_seconds,
                scatter.rebalances.get()
            );
        }
    }
    Ok(())
}

fn main() {
    if let Err(e) = run(&Args::parse()) {
        eprintln!("mdrun: {e}\n\n{USAGE}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::run;
    use sdc_bench::Args;

    /// Runs the argument pipeline and returns the usage error it must
    /// produce (all cases here fail flag validation, long before any
    /// simulation is built).
    fn err_of(flags: &[&str]) -> String {
        let argv: Vec<String> = flags.iter().map(|s| s.to_string()).collect();
        run(&Args::from_vec(argv)).expect_err("expected a usage error")
    }

    #[test]
    fn shards_reject_every_single_process_convenience() {
        for (flags, needle) in [
            (vec!["--shards", "2", "--restart", "x.ckpt"], "--restart"),
            (vec!["--shards", "2", "--recover"], "--recover"),
            (vec!["--shards", "2", "--max-retries", "5"], "--max-retries"),
            (vec!["--shards", "2", "--balance"], "--balance"),
            (vec!["--shards", "2", "--reorder"], "--reorder"),
            (vec!["--shards", "2", "--log", "t.csv"], "--log"),
            (
                vec!["--shards", "2", "--thermostat", "rescale:300:10"],
                "--thermostat",
            ),
        ] {
            let e = err_of(&flags);
            assert!(
                e.contains(needle) && e.contains("--shards"),
                "{flags:?} must name both the flag and --shards, got: {e}"
            );
        }
    }

    #[test]
    fn shards_reject_the_taskgraph_scheduler() {
        let e = err_of(&["--shards", "2", "--strategy", "taskgraph2d"]);
        assert!(e.contains("task-graph") && e.contains("--shards"), "{e}");
    }

    #[test]
    fn shard_transport_options_need_shards() {
        assert!(err_of(&["--shard-backend", "process"]).contains("--shards"));
    }

    #[test]
    fn unknown_flags_and_bad_values_are_usage_errors() {
        assert!(err_of(&["--no-simdd"]).contains("unknown flag"));
        assert!(err_of(&["--no-fused"]).contains("unknown flag"));
        assert!(err_of(&["--no-simd"]).contains("unknown flag"));
        assert!(err_of(&["--taskgraph"]).contains("unknown flag"));
        assert!(err_of(&["--cells", "many"]).contains("--cells"));
        assert!(err_of(&["--strategy", "avx"]).contains("--strategy"));
    }
}
