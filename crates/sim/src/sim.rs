//! The simulation driver.
//!
//! [`Simulation`] wires a [`System`], a [`ForceEngine`], the integrator, an
//! optional thermostat, and the paper's §II.D data-reordering optimization
//! into a run loop; [`SimulationBuilder`] is the one-stop configuration
//! surface used by the examples and the benchmark harness.

use crate::balance::{BalanceConfig, RebalanceEvent};
use crate::checkpoint::save_checkpoint;
use crate::forces::{EngineError, ForceEngine, PotentialChoice};
use crate::health::{FaultRecord, RecoveryConfig, RecoveryError, RecoveryReport, Watchdog};
use crate::integrate::velocity_verlet;
use crate::metrics::SimMetrics;
use crate::system::System;
use crate::thermo::Thermo;
use crate::thermostat::Thermostat;
use crate::timing::PhaseTimers;
use crate::units::FE_MASS;
use crate::velocity::init_velocities;
use md_geometry::{LatticeSpec, Vec3};
use md_neighbor::reorder::spatial_permutation;
use md_potential::{EamPotential, PairPotential};
use sdc_core::{DowngradeEvent, StrategyKind};
use std::sync::Arc;

/// A configured, running molecular-dynamics simulation.
pub struct Simulation {
    system: System,
    engine: ForceEngine,
    dt: f64,
    thermostat: Thermostat,
    reorder: bool,
    step: usize,
}

impl Simulation {
    /// Starts building a simulation of a crystal generated from `spec`.
    pub fn builder(spec: LatticeSpec) -> SimulationBuilder {
        SimulationBuilder::new(SystemSource::Lattice(spec))
    }

    /// Starts building a simulation from an explicit system.
    pub fn from_system(system: System) -> SimulationBuilder {
        SimulationBuilder::new(SystemSource::Explicit(Box::new(system)))
    }

    /// Advances one time-step (velocity Verlet + thermostat).
    pub fn step(&mut self) {
        let start = self
            .engine
            .metrics()
            .is_some()
            .then(std::time::Instant::now);
        // The §II.D spatial reorder rides along with list rebuilds: relabel
        // atoms by cell *before* the rebuild the integrator is about to do,
        // so the fresh list is built on the improved layout.
        if self.reorder
            && self
                .engine
                .neighbor_list()
                .needs_rebuild(self.system.sim_box(), self.system.positions())
        {
            let reach = self.engine.neighbor_list().config().reach();
            // On the engine's pool: parallel exactly when it has more than
            // one thread, with the same result either way.
            let system = &mut self.system;
            self.engine.ctx().install(|| {
                let perm = spatial_permutation(system.sim_box(), system.positions(), reach);
                system.apply_permutation(&perm);
            });
            self.engine.rebuild(&self.system);
        }
        velocity_verlet(&mut self.system, &mut self.engine, self.dt);
        self.step += 1;
        self.thermostat
            .apply(&mut self.system, self.step, self.dt);
        if let (Some(start), Some(m)) = (start, self.engine.metrics()) {
            m.step.record(start.elapsed());
        }
    }

    /// Runs `steps` time-steps.
    pub fn run(&mut self, steps: usize) {
        for _ in 0..steps {
            self.step();
        }
    }

    /// Runs `steps` time-steps, invoking `report` with a fresh
    /// [`Thermo`] snapshot every `every` steps (and after the final step).
    pub fn run_with(
        &mut self,
        steps: usize,
        every: usize,
        mut report: impl FnMut(&Simulation, Thermo),
    ) {
        let every = every.max(1);
        for k in 1..=steps {
            self.step();
            if k % every == 0 || k == steps {
                let snapshot = self.thermo();
                report(self, snapshot);
            }
        }
    }

    /// Runs `steps` time-steps under fault supervision.
    ///
    /// A [`Watchdog`] checks the state after every step. On a fault, the
    /// simulation rolls back to the last good snapshot (taken every
    /// `cfg.checkpoint_every` steps, optionally persisted to
    /// `cfg.checkpoint_path` with an atomic write), shrinks the time-step by
    /// `cfg.dt_backoff`, and retries. More than `cfg.max_retries`
    /// consecutive faults without completing a checkpoint interval aborts
    /// with [`RecoveryError::RetriesExhausted`].
    pub fn run_with_recovery(
        &mut self,
        steps: usize,
        cfg: &RecoveryConfig,
    ) -> Result<RecoveryReport, RecoveryError> {
        self.run_with_recovery_observed(steps, cfg, |_, _| {})
    }

    /// [`Simulation::run_with_recovery`] with an observer hook invoked after
    /// every step, before the watchdog check. The hook may mutate the
    /// system — this is how tests inject faults
    /// (see [`crate::health::FaultInjector`]).
    pub fn run_with_recovery_observed(
        &mut self,
        steps: usize,
        cfg: &RecoveryConfig,
        mut observe: impl FnMut(&mut System, usize),
    ) -> Result<RecoveryReport, RecoveryError> {
        let mut report = RecoveryReport {
            final_dt: self.dt,
            ..RecoveryReport::default()
        };
        let mut watchdog = Watchdog::new(cfg.watchdog.clone());
        watchdog.arm(&self.system, &self.engine);
        let capture = |sim: &Simulation, done: usize| (sim.system.clone(), sim.step, done);
        let mut snapshot = capture(self, 0);
        if let Some(path) = &cfg.checkpoint_path {
            save_checkpoint(path, &self.system, self.step)?;
        }
        report.checkpoints_taken = 1;
        let every = cfg.checkpoint_every.max(1);
        let mut retries = 0usize;
        // First fault of the current retry streak: the *root cause*. Later
        // faults in the same streak are often artifacts of the rollback
        // (e.g. a drift check tripping on the replayed interval), so when
        // the budget runs out it is the first fault that gets surfaced.
        let mut streak_root: Option<crate::health::SimFault> = None;
        let mut done = 0usize;
        while done < steps {
            self.step();
            observe(&mut self.system, self.step);
            match watchdog.check(&self.system, &self.engine, self.step) {
                Ok(()) => {
                    done += 1;
                    if done.is_multiple_of(every) && done < steps {
                        snapshot = capture(self, done);
                        if let Some(path) = &cfg.checkpoint_path {
                            save_checkpoint(path, &self.system, self.step)?;
                        }
                        report.checkpoints_taken += 1;
                        // A full clean interval proves the run is healthy
                        // again; reset the retry budget.
                        retries = 0;
                        streak_root = None;
                        watchdog.arm(&self.system, &self.engine);
                    }
                }
                Err(fault) => {
                    retries += 1;
                    report.faults.push(FaultRecord {
                        step: fault.step(),
                        retry: retries,
                        fault: fault.clone(),
                    });
                    let root = streak_root.get_or_insert_with(|| fault.clone());
                    if retries > cfg.max_retries {
                        return Err(RecoveryError::RetriesExhausted {
                            fault: root.clone(),
                            retries: retries - 1,
                        });
                    }
                    // Roll back to the last good state and retry with a
                    // smaller time-step. The backoff survives the rollback
                    // on purpose: the old dt is what faulted.
                    self.system = snapshot.0.clone();
                    self.step = snapshot.1;
                    done = snapshot.2;
                    self.dt = (self.dt * cfg.dt_backoff).max(cfg.min_dt);
                    self.engine.rebuild(&self.system);
                    self.engine.compute(&mut self.system);
                    watchdog.arm(&self.system, &self.engine);
                    report.rollbacks += 1;
                }
            }
        }
        report.steps_completed = steps;
        report.final_dt = self.dt;
        Ok(report)
    }

    /// Strategy downgrades recorded by the engine (at construction with
    /// fallback enabled, or mid-run when the box deforms under the SDC
    /// feasibility threshold).
    pub fn downgrades(&self) -> &[DowngradeEvent] {
        self.engine.downgrades()
    }

    /// Mid-run plan changes adopted by the cost-guided balancer (empty when
    /// balancing is off — see [`SimulationBuilder::balance`]).
    pub fn rebalances(&self) -> &[RebalanceEvent] {
        self.engine.rebalance_events()
    }

    /// Current thermodynamic snapshot.
    pub fn thermo(&self) -> Thermo {
        Thermo::measure(&self.system, &self.engine, self.step)
    }

    /// The atom state.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable atom state (for custom perturbations between steps; callers
    /// moving atoms should follow with [`Simulation::refresh_forces`]).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// The force engine.
    pub fn engine(&self) -> &ForceEngine {
        &self.engine
    }

    /// Accumulated phase timers.
    pub fn timers(&self) -> &PhaseTimers {
        self.engine.timers()
    }

    /// The metrics bundle, when the observability layer was enabled with
    /// [`SimulationBuilder::metrics`].
    pub fn metrics(&self) -> Option<&SimMetrics> {
        self.engine.metrics()
    }

    /// Resets phase timers (e.g. after warm-up).
    pub fn reset_timers(&mut self) {
        self.engine.reset_timers();
    }

    /// Steps taken so far.
    pub fn step_count(&self) -> usize {
        self.step
    }

    /// Time-step size (ps).
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Replaces the thermostat mid-run (e.g. a temperature ramp).
    pub fn set_thermostat(&mut self, thermostat: Thermostat) {
        self.thermostat = thermostat;
    }

    /// Applies an affine strain to box and atoms (the paper's
    /// micro-deformation workload), then rebuilds lists and forces.
    pub fn deform(&mut self, factors: Vec3) {
        self.system.deform(factors);
        self.refresh_forces();
    }

    /// Rebuilds neighbor structures and recomputes forces after an external
    /// modification of the system.
    pub fn refresh_forces(&mut self) {
        self.engine.rebuild(&self.system);
        self.engine.compute(&mut self.system);
    }
}

enum SystemSource {
    Lattice(LatticeSpec),
    Explicit(Box<System>),
}

/// Builder for [`Simulation`].
pub struct SimulationBuilder {
    source: SystemSource,
    mass: f64,
    potential: Option<PotentialChoice>,
    strategy: StrategyKind,
    threads: usize,
    skin: f64,
    dt: f64,
    temperature: f64,
    seed: u64,
    thermostat: Thermostat,
    reorder: bool,
    strategy_fallback: bool,
    metrics: bool,
    balance: Option<BalanceConfig>,
    start_step: usize,
}

impl SimulationBuilder {
    fn new(source: SystemSource) -> SimulationBuilder {
        SimulationBuilder {
            source,
            mass: FE_MASS,
            potential: None,
            strategy: StrategyKind::Serial,
            threads: 1,
            skin: 0.3,
            dt: 1e-3, // 1 fs
            temperature: 0.0,
            seed: 0,
            thermostat: Thermostat::None,
            reorder: false,
            strategy_fallback: true,
            metrics: false,
            balance: None,
            start_step: 0,
        }
    }

    /// Atom mass in amu (default: iron).
    pub fn mass(mut self, mass: f64) -> Self {
        self.mass = mass;
        self
    }

    /// Uses an EAM potential.
    pub fn potential(mut self, p: impl EamPotential + 'static) -> Self {
        self.potential = Some(PotentialChoice::Eam(Arc::new(p)));
        self
    }

    /// Uses a pair potential.
    pub fn pair_potential(mut self, p: impl PairPotential + 'static) -> Self {
        self.potential = Some(PotentialChoice::Pair(Arc::new(p)));
        self
    }

    /// Uses a pre-wrapped potential choice.
    pub fn potential_choice(mut self, p: PotentialChoice) -> Self {
        self.potential = Some(p);
        self
    }

    /// Parallelization strategy (default: serial).
    pub fn strategy(mut self, s: StrategyKind) -> Self {
        self.strategy = s;
        self
    }

    /// Worker threads (default 1).
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Verlet skin in Å (default 0.3).
    pub fn skin(mut self, skin: f64) -> Self {
        self.skin = skin;
        self
    }

    /// Time-step in ps (default 1 fs; the paper uses
    /// [`crate::units::PAPER_DT_PS`]).
    pub fn dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Initial temperature in K (default 0: atoms start at rest).
    pub fn temperature(mut self, t: f64) -> Self {
        self.temperature = t;
        self
    }

    /// RNG seed for velocity initialization (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Seeds the step counter (default 0). A run resumed from a checkpoint
    /// must pass the checkpointed step here so that
    /// [`Simulation::step_count`], thermostat schedules, and any checkpoints
    /// written later stay absolute instead of restarting from zero.
    pub fn start_step(mut self, step: usize) -> Self {
        self.start_step = step;
        self
    }

    /// Thermostat (default: none, NVE).
    pub fn thermostat(mut self, t: Thermostat) -> Self {
        self.thermostat = t;
        self
    }

    /// Enables the §II.D spatial data-reordering optimization: atoms are
    /// relabeled by cell at startup and at every neighbor-list rebuild.
    pub fn reorder(mut self, on: bool) -> Self {
        self.reorder = on;
        self
    }

    /// Controls graceful strategy degradation (default **on**): when the
    /// requested `Sdc { dims }` decomposition is infeasible for the box,
    /// the build downgrades `dims` 3 → 2 → 1 and finally falls back to
    /// serial instead of failing, recording each step as a
    /// [`DowngradeEvent`] (see [`Simulation::downgrades`]). Disable to make
    /// an infeasible strategy a hard [`EngineError`] again.
    pub fn strategy_fallback(mut self, on: bool) -> Self {
        self.strategy_fallback = on;
        self
    }

    /// Enables the observability layer (default **off**): per-step /
    /// per-phase span histograms, strategy counters, per-color walls and
    /// per-thread busy times, readable via [`Simulation::metrics`] and
    /// exportable as a [`crate::metrics::RunReport`]. The overhead budget
    /// is ≤ 1% of mean step time (DESIGN.md §10).
    pub fn metrics(mut self, on: bool) -> Self {
        self.metrics = on;
        self
    }

    /// Enables the cost-guided SDC load balancer (default **off**): LPT
    /// task ordering within colors, a decomposition search minimizing the
    /// predicted makespan, and mid-run re-planning at neighbor-list rebuilds
    /// when the observed imbalance exceeds the plan's prediction (see
    /// [`crate::balance`]). Only affects `Sdc` and `TaskGraph` strategies,
    /// and changes their dims, never their regime; results are
    /// bitwise-identical to the unbalanced path for a fixed decomposition
    /// and agree to FP-roundoff across decompositions.
    pub fn balance(mut self, on: bool) -> Self {
        self.balance = on.then(BalanceConfig::default);
        self
    }

    /// Like [`SimulationBuilder::balance`], but with explicit tuning.
    pub fn balance_config(mut self, config: BalanceConfig) -> Self {
        self.balance = Some(config);
        self
    }

    /// Builds the simulation: generates the system, initializes velocities,
    /// builds neighbor structures and computes the initial forces.
    pub fn build(self) -> Result<Simulation, EngineError> {
        let mut system = match self.source {
            SystemSource::Lattice(spec) => System::from_lattice(spec, self.mass),
            SystemSource::Explicit(s) => *s,
        };
        let potential = self.potential.expect("a potential must be configured");
        if self.temperature > 0.0 {
            init_velocities(&mut system, self.temperature, self.seed);
        }
        if self.reorder {
            let perm = spatial_permutation(
                system.sim_box(),
                system.positions(),
                potential.cutoff() + self.skin,
            );
            system.apply_permutation(&perm);
        }
        let mut engine = if self.strategy_fallback {
            ForceEngine::with_fallback(&system, potential, self.strategy, self.threads, self.skin)?
        } else {
            ForceEngine::new(&system, potential, self.strategy, self.threads, self.skin)?
        };
        if self.metrics {
            engine.enable_metrics();
        }
        if let Some(config) = self.balance {
            engine.enable_balance(&system, config);
        }
        engine.compute(&mut system);
        Ok(Simulation {
            system,
            engine,
            dt: self.dt,
            thermostat: self.thermostat,
            reorder: self.reorder,
            step: self.start_step,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_potential::{AnalyticEam, LennardJones};

    fn fe_sim(strategy: StrategyKind) -> Simulation {
        Simulation::builder(LatticeSpec::bcc_fe(5))
            .potential(AnalyticEam::fe())
            .strategy(strategy)
            .temperature(300.0)
            .seed(42)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_defaults_produce_a_runnable_simulation() {
        let mut sim = fe_sim(StrategyKind::Serial);
        assert_eq!(sim.step_count(), 0);
        sim.run(5);
        assert_eq!(sim.step_count(), 5);
        let t = sim.thermo();
        assert!(t.temperature > 0.0);
        assert!(t.potential_energy < 0.0);
        assert!(t.total.is_finite());
    }

    #[test]
    fn start_step_seeds_the_step_counter_for_resumed_runs() {
        let mut sim = fe_sim(StrategyKind::Serial);
        sim.run(7);
        let mut resumed = Simulation::from_system(sim.system().clone())
            .potential(AnalyticEam::fe())
            .start_step(sim.step_count())
            .build()
            .unwrap();
        assert_eq!(resumed.step_count(), 7, "resume must keep the absolute step");
        resumed.run(3);
        assert_eq!(resumed.step_count(), 10);
    }

    #[test]
    fn identical_seeds_give_identical_trajectories() {
        let mut a = fe_sim(StrategyKind::Serial);
        let mut b = fe_sim(StrategyKind::Serial);
        a.run(10);
        b.run(10);
        assert_eq!(a.system().positions(), b.system().positions());
    }

    #[test]
    fn strategies_produce_matching_trajectories() {
        // Deterministic strategies agree to FP-roundoff over a short run.
        let mut serial = fe_sim(StrategyKind::Serial);
        let mut sap = fe_sim(StrategyKind::Privatized);
        serial.run(10);
        sap.run(10);
        for (a, b) in serial
            .system()
            .positions()
            .iter()
            .zip(sap.system().positions())
        {
            assert!((*a - *b).norm() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn thermostat_holds_temperature() {
        let mut sim = Simulation::builder(LatticeSpec::bcc_fe(5))
            .potential(AnalyticEam::fe())
            .temperature(600.0)
            .seed(1)
            .thermostat(Thermostat::Berendsen {
                target: 300.0,
                tau: 0.02,
            })
            .build()
            .unwrap();
        sim.run(300);
        let t = sim.thermo().temperature;
        assert!((150.0..450.0).contains(&t), "T = {t}");
    }

    #[test]
    fn reorder_changes_labels_not_physics() {
        let mut plain = Simulation::builder(LatticeSpec::bcc_fe(5))
            .potential(AnalyticEam::fe())
            .temperature(300.0)
            .seed(9)
            .build()
            .unwrap();
        let mut sorted = Simulation::builder(LatticeSpec::bcc_fe(5))
            .potential(AnalyticEam::fe())
            .temperature(300.0)
            .seed(9)
            .reorder(true)
            .build()
            .unwrap();
        plain.run(20);
        sorted.run(20);
        let ta = plain.thermo();
        let tb = sorted.thermo();
        // Same initial condition modulo relabeling ⇒ same macroscopic state.
        assert!(
            (ta.total - tb.total).abs() < 1e-6 * ta.total.abs(),
            "total energy {} vs {}",
            ta.total,
            tb.total
        );
        assert!((ta.temperature - tb.temperature).abs() < 2.0);
    }

    #[test]
    fn deform_strains_the_box_and_recomputes() {
        let mut sim = fe_sim(StrategyKind::Serial);
        let v0 = sim.system().sim_box().volume();
        let p0 = sim.thermo().pressure_gpa;
        sim.deform(Vec3::splat(0.98));
        let v1 = sim.system().sim_box().volume();
        assert!(v1 < v0);
        assert!(sim.thermo().pressure_gpa > p0, "compression raises pressure");
    }

    #[test]
    fn thermostat_can_be_retargeted_mid_run() {
        let mut sim = Simulation::builder(LatticeSpec::bcc_fe(5))
            .potential(AnalyticEam::fe())
            .temperature(600.0)
            .seed(2)
            .thermostat(Thermostat::Rescale { target: 600.0, every: 1 })
            .build()
            .unwrap();
        sim.run(5);
        assert!((sim.thermo().temperature - 600.0).abs() < 1.0);
        sim.set_thermostat(Thermostat::Rescale { target: 200.0, every: 1 });
        sim.run(5);
        assert!((sim.thermo().temperature - 200.0).abs() < 1.0);
    }

    #[test]
    fn run_with_reports_at_the_requested_cadence() {
        let mut sim = fe_sim(StrategyKind::Serial);
        let mut seen = Vec::new();
        sim.run_with(10, 4, |_, t| seen.push(t.step));
        // Reports at 4, 8 and the final step 10.
        assert_eq!(seen, vec![4, 8, 10]);
    }

    #[test]
    fn lj_pair_simulation_runs() {
        let spec = LatticeSpec::new(md_geometry::Lattice::Fcc, 1.5496, [6, 6, 6]);
        let mut sim = Simulation::builder(spec)
            .pair_potential(LennardJones::reduced(1.0, 1.0))
            .mass(1.0)
            .temperature(0.3 / 8.617333262e-5) // T* ≈ 0.3 in LJ units
            .dt(1e-3)
            .seed(3)
            .build()
            .unwrap();
        sim.run(20);
        assert!(sim.thermo().total.is_finite());
    }

    #[test]
    #[should_panic(expected = "potential must be configured")]
    fn missing_potential_panics() {
        let _ = Simulation::builder(LatticeSpec::bcc_fe(5)).build();
    }

    #[test]
    fn metrics_layer_records_spans_and_color_timings() {
        // bcc_fe(9) hosts every SDC dimensionality (no downgrade).
        let mut sim = Simulation::builder(LatticeSpec::bcc_fe(9))
            .potential(AnalyticEam::fe())
            .strategy(StrategyKind::Sdc { dims: 2 })
            .threads(2)
            .temperature(300.0)
            .seed(7)
            .metrics(true)
            .build()
            .unwrap();
        assert_eq!(sim.engine().strategy(), StrategyKind::Sdc { dims: 2 });
        sim.run(3);
        let m = sim.metrics().expect("metrics were enabled");
        assert_eq!(m.step.count(), 3);
        assert_eq!(m.integrate.count(), 3);
        // build() computes once, then one compute per step.
        assert_eq!(m.force.count(), 4);
        // 2-D SDC has 4 colors; EAM runs 2 scatter sweeps per compute.
        assert_eq!(m.scatter.color_barriers.get(), 4 * 2 * 4);
        for color in 0..4 {
            assert_eq!(m.scatter.color_wall[color].count(), 2 * 4, "color {color}");
        }
        for color in 4..8 {
            assert_eq!(m.scatter.color_wall[color].count(), 0, "color {color}");
        }
        let busy: u64 = m.scatter.thread_busy_ns.iter().map(|c| c.get()).sum();
        assert!(busy > 0, "workers recorded busy time");
        // Metrics stay off unless requested.
        assert!(fe_sim(StrategyKind::Serial).metrics().is_none());
    }

    #[test]
    fn strategy_counters_agree_on_the_contributing_pair_count() {
        // One initial force computation (2 sweeps), atoms at rest, so every
        // strategy sees the identical set of contributing pairs:
        // CS locks once per pair, RC revisits each pair once, and striped
        // locks take one base acquisition per pair plus one per crossing.
        let build = |strategy| {
            Simulation::builder(LatticeSpec::bcc_fe(5))
                .potential(AnalyticEam::fe())
                .strategy(strategy)
                .threads(2)
                .metrics(true)
                .build()
                .unwrap()
        };
        let cs = build(StrategyKind::Critical);
        let pairs = cs.metrics().unwrap().scatter.lock_acquisitions.get();
        assert!(pairs > 0);

        let rc = build(StrategyKind::Redundant);
        assert_eq!(rc.metrics().unwrap().scatter.duplicate_pairs.get(), pairs);

        let locks = build(StrategyKind::Locks);
        let sc = &locks.metrics().unwrap().scatter;
        assert_eq!(
            sc.lock_acquisitions.get(),
            pairs + sc.lock_crossings.get()
        );

        let sap = build(StrategyKind::Privatized);
        let sc = &sap.metrics().unwrap().scatter;
        assert_eq!(sc.merges.get(), 2, "one merge per sweep");
        assert!(sc.merge_ns.get() > 0);
        assert!(sc.private_bytes.get() > 0.0);
    }

    #[test]
    fn balanced_sdc_matches_serial_and_reports_its_choice() {
        let serial = || {
            let mut sim = Simulation::builder(LatticeSpec::bcc_fe(9))
                .potential(AnalyticEam::fe())
                .temperature(300.0)
                .seed(11)
                .build()
                .unwrap();
            sim.run(5);
            sim
        };
        let mut balanced = Simulation::builder(LatticeSpec::bcc_fe(9))
            .potential(AnalyticEam::fe())
            .strategy(StrategyKind::Sdc { dims: 3 })
            .threads(2)
            .temperature(300.0)
            .seed(11)
            .metrics(true)
            .balance(true)
            .build()
            .unwrap();
        let choice = balanced.engine().plan_choice().expect("balancer is on");
        // The search may legitimately change dims; the strategy follows it.
        assert_eq!(
            balanced.engine().strategy(),
            StrategyKind::Sdc { dims: choice.dims }
        );
        balanced.run(5);
        let reference = serial();
        for (a, b) in reference
            .system()
            .positions()
            .iter()
            .zip(balanced.system().positions())
        {
            assert!((*a - *b).norm() <= 1e-10, "{a} vs {b}");
        }
        // The initial search already adopted the optimum; a uniform crystal
        // gives any re-search no better plan, so no rebalance is recorded.
        assert!(balanced.rebalances().is_empty());
        let m = balanced.metrics().unwrap();
        assert!(m.scatter.planned_imbalance.get() >= 1.0);
    }

    #[test]
    fn builder_degrades_infeasible_sdc_by_default() {
        // bcc_fe(6) (17.2 Å edges) cannot host any SDC decomposition; the
        // default fallback lands on serial and records the chain.
        let sim = Simulation::builder(LatticeSpec::bcc_fe(6))
            .potential(AnalyticEam::fe())
            .strategy(StrategyKind::Sdc { dims: 3 })
            .build()
            .unwrap();
        assert_eq!(sim.engine().strategy(), StrategyKind::Serial);
        assert_eq!(sim.downgrades().len(), 3);
    }

    #[test]
    fn builder_fallback_can_be_disabled() {
        let result = Simulation::builder(LatticeSpec::bcc_fe(6))
            .potential(AnalyticEam::fe())
            .strategy(StrategyKind::Sdc { dims: 3 })
            .strategy_fallback(false)
            .build();
        assert!(matches!(
            result.err(),
            Some(EngineError::Decomposition(_))
        ));
    }

    mod recovery {
        use super::*;
        use crate::health::{
            FaultInjector, InjectedFault, RecoveryConfig, RecoveryError, SimFault, WatchdogConfig,
        };

        fn cfg(every: usize) -> RecoveryConfig {
            RecoveryConfig {
                checkpoint_every: every,
                ..RecoveryConfig::default()
            }
        }

        #[test]
        fn clean_run_reports_no_faults() {
            let mut sim = fe_sim(StrategyKind::Serial);
            let report = sim.run_with_recovery(20, &cfg(8)).unwrap();
            assert_eq!(report.steps_completed, 20);
            assert_eq!(report.rollbacks, 0);
            assert!(report.faults.is_empty());
            // Initial snapshot + captures at 8 and 16.
            assert_eq!(report.checkpoints_taken, 3);
            assert_eq!(sim.step_count(), 20);
            assert_eq!(report.final_dt, sim.dt());
        }

        #[test]
        fn injected_nan_force_rolls_back_and_completes() {
            let mut reference = fe_sim(StrategyKind::Serial);
            let mut sim = fe_sim(StrategyKind::Serial);
            let dt0 = sim.dt();
            let mut inj = FaultInjector::new(13, InjectedFault::NanForce { atom: 7 });
            let report = sim
                .run_with_recovery_observed(20, &cfg(10), |system, step| {
                    inj.poke(system, step);
                })
                .unwrap();
            assert!(inj.fired());
            assert_eq!(report.steps_completed, 20);
            assert_eq!(report.rollbacks, 1);
            assert_eq!(report.faults.len(), 1);
            assert!(matches!(
                report.faults[0].fault,
                SimFault::NonFiniteForce { atom: 7, step: 13 }
            ));
            assert!(report.final_dt < dt0, "backoff shrank dt");
            assert_eq!(sim.step_count(), 20);
            // The final state is healthy even though the run detoured.
            reference.run(20);
            let t = sim.thermo();
            assert!(t.total.is_finite());
            assert!(
                (t.total - reference.thermo().total).abs() < 1.0,
                "recovered run stays physically close to a clean one"
            );
        }

        #[test]
        fn persistent_fault_exhausts_retries() {
            let mut sim = fe_sim(StrategyKind::Serial);
            // Poison every step: no retry budget survives this.
            let err = sim
                .run_with_recovery_observed(20, &cfg(10), |system, _| {
                    system.forces_mut()[0].x = f64::NAN;
                })
                .unwrap_err();
            match err {
                RecoveryError::RetriesExhausted { fault, retries } => {
                    assert_eq!(retries, RecoveryConfig::default().max_retries);
                    assert!(matches!(fault, SimFault::NonFiniteForce { .. }));
                }
                other => panic!("expected RetriesExhausted, got {other}"),
            }
        }

        #[test]
        fn retry_budget_resets_after_a_clean_interval() {
            let mut sim = fe_sim(StrategyKind::Serial);
            // Two separated faults, each within its own checkpoint interval;
            // with max_retries = 1 the run still completes because the
            // budget resets at the intervening checkpoint.
            let mut a = FaultInjector::new(3, InjectedFault::NanForce { atom: 0 });
            let mut b = FaultInjector::new(12, InjectedFault::NanForce { atom: 1 });
            let mut config = cfg(5);
            config.max_retries = 1;
            let report = sim
                .run_with_recovery_observed(20, &config, |system, step| {
                    a.poke(system, step);
                    b.poke(system, step);
                })
                .unwrap();
            assert_eq!(report.rollbacks, 2);
            assert_eq!(report.steps_completed, 20);
        }

        #[test]
        fn disk_checkpoints_are_written_when_configured() {
            let path = std::env::temp_dir().join("sdc_md_recovery_test.ckpt");
            let _ = std::fs::remove_file(&path);
            let mut sim = fe_sim(StrategyKind::Serial);
            let mut config = cfg(6);
            config.checkpoint_path = Some(path.clone());
            let report = sim.run_with_recovery(12, &config).unwrap();
            assert!(report.checkpoints_taken >= 2);
            let (restored, step) = crate::checkpoint::load_checkpoint(&path).unwrap();
            assert_eq!(step, 6, "last persisted snapshot is the step-6 one");
            assert_eq!(restored.len(), sim.system().len());
            let _ = std::fs::remove_file(path);
        }

        #[test]
        fn watchdog_temperature_ceiling_trips_on_velocity_blowup() {
            let mut sim = fe_sim(StrategyKind::Serial);
            let mut inj = FaultInjector::new(4, InjectedFault::VelocityBlowup {
                atom: 0,
                factor: 1e4,
            });
            let mut config = cfg(10);
            config.watchdog = WatchdogConfig {
                max_temperature: Some(5_000.0),
                ..WatchdogConfig::default()
            };
            let report = sim
                .run_with_recovery_observed(8, &config, |system, step| {
                    inj.poke(system, step);
                })
                .unwrap();
            assert_eq!(report.rollbacks, 1);
            assert!(matches!(
                report.faults[0].fault,
                SimFault::TemperatureBlowup { .. }
            ));
            assert!(sim.thermo().temperature < 5_000.0);
        }
    }
}
