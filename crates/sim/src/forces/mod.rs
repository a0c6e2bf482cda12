//! Force computation engines.
//!
//! [`ForceEngine`] owns everything a force evaluation needs — the thread
//! pool, the Verlet lists, the SDC plan, the potential — and exposes the
//! paper's workflow:
//!
//! * [`ForceEngine::maybe_rebuild`] — rebuild neighbor list *and*
//!   decomposition together when atoms have drifted past half the skin
//!   (paper §II.B: "steps 1 and 2 will be done when the neighbor list is
//!   created or updated");
//! * [`ForceEngine::compute`] — the three-phase EAM force computation
//!   (§II.C) or single-phase pair forces, every irregular reduction routed
//!   through the configured [`StrategyKind`];
//! * [`ForceEngine::timers`] — phase-resolved timing (§III.A metric).

pub mod eam;
pub mod pair;

use crate::balance::{BalanceConfig, BalanceState, RebalanceEvent};
use crate::metrics::SimMetrics;
use crate::system::System;
use crate::timing::{Phase, PhaseTimers};
use md_neighbor::{NeighborList, VerletConfig};
use md_perfmodel::ObservedImbalance;
use md_potential::{EamPotential, PairPotential};
use sdc_core::schedule::{self, PlanChoice};
use sdc_core::strategies::localwrite::LocalWritePlan;
use sdc_core::strategies::privatized::SapBuffers;
use sdc_core::{
    ColorSchedule, DecompositionConfig, DecompositionError, DowngradeEvent, ParallelContext,
    ScatterExec, SdcPlan, StrategyKind, TaskGraph,
};
use std::sync::Arc;

/// The potential driving the forces.
#[derive(Clone)]
pub enum PotentialChoice {
    /// Embedded-Atom Method (three computational phases).
    Eam(Arc<dyn EamPotential>),
    /// Plain pair potential (one computational phase).
    Pair(Arc<dyn PairPotential>),
}

impl PotentialChoice {
    /// Interaction cutoff of the wrapped potential.
    pub fn cutoff(&self) -> f64 {
        match self {
            PotentialChoice::Eam(p) => p.cutoff(),
            PotentialChoice::Pair(p) => p.cutoff(),
        }
    }

    /// `true` for EAM.
    pub fn is_eam(&self) -> bool {
        matches!(self, PotentialChoice::Eam(_))
    }
}

impl std::fmt::Debug for PotentialChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PotentialChoice::Eam(p) => write!(f, "Eam(cutoff = {})", p.cutoff()),
            PotentialChoice::Pair(p) => write!(f, "Pair(cutoff = {})", p.cutoff()),
        }
    }
}

/// Errors configuring a [`ForceEngine`].
#[derive(Debug)]
pub enum EngineError {
    /// The box cannot satisfy the decomposition constraints for the chosen
    /// SDC dimensionality.
    Decomposition(DecompositionError),
    /// The box is too small for the cutoff + skin (minimum-image violation).
    BoxTooSmall(md_geometry::simbox::BoxError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Decomposition(e) => write!(f, "decomposition failed: {e}"),
            EngineError::BoxTooSmall(e) => write!(f, "box too small: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DecompositionError> for EngineError {
    fn from(e: DecompositionError) -> EngineError {
        EngineError::Decomposition(e)
    }
}

/// LOCALWRITE partition count: several chunks per worker so the scheduler
/// can balance, without inflating the boundary-pair fraction.
fn localwrite_partitions(threads: usize) -> usize {
    (threads * 4).max(4)
}

/// A configured force computation pipeline.
pub struct ForceEngine {
    potential: PotentialChoice,
    strategy: StrategyKind,
    ctx: ParallelContext,
    verlet: VerletConfig,
    half: NeighborList,
    full: Option<NeighborList>,
    plan: Option<SdcPlan>,
    localwrite: Option<LocalWritePlan>,
    timers: PhaseTimers,
    rebuilds: usize,
    downgrades: Vec<DowngradeEvent>,
    metrics: Option<Arc<SimMetrics>>,
    scratch: Vec<eam::PairRecord>,
    lane_occupancy: Option<f64>,
    sap: SapBuffers,
    balance: Option<BalanceState>,
    taskgraph: Option<TaskGraph>,
}

/// Plan-backed `kind` on a `dims`-axis plan: the balancer may change a
/// plan's dims, never whether it runs barriered or as a task graph.
fn with_dims(kind: StrategyKind, dims: usize) -> StrategyKind {
    match kind {
        StrategyKind::TaskGraph { .. } => StrategyKind::TaskGraph { dims },
        _ => StrategyKind::Sdc { dims },
    }
}

/// Builds the half list on `ctx`'s pool: in parallel exactly when it has
/// more than one thread (and the system is large enough to split).
///
/// With a plan the rows are laid out in the plan's atom order,
/// `plan.atom_bins().indices()`: subdomain by subdomain, each in
/// [`SdcPlan::atoms_of`] order, which is how `run_tasks` visits them under
/// SDC and the task graph, so each task reads its neighbour ids and pair
/// records as one contiguous run. Without one (Serial, the baselines) they
/// stay in atom order, Serial's visiting order.
///
/// [`NeighborList::build`] emits the same bytes at every thread count, and
/// the layout moves no row byte, so neither changes a trajectory.
fn build_half_list(
    ctx: &ParallelContext,
    system: &System,
    verlet: VerletConfig,
    plan: Option<&SdcPlan>,
) -> NeighborList {
    let (sim_box, positions) = (system.sim_box(), system.positions());
    ctx.install(|| match plan {
        Some(plan) => {
            NeighborList::build_laid_out(sim_box, positions, verlet, plan.atom_bins().indices())
        }
        None => NeighborList::build(sim_box, positions, verlet),
    })
}

impl ForceEngine {
    /// Builds the engine and its initial neighbor list / plan from the
    /// current system state.
    pub fn new(
        system: &System,
        potential: PotentialChoice,
        strategy: StrategyKind,
        threads: usize,
        skin: f64,
    ) -> Result<ForceEngine, EngineError> {
        let cutoff = potential.cutoff();
        let verlet = VerletConfig::half(cutoff, skin);
        system
            .sim_box()
            .validate_cutoff(verlet.reach())
            .map_err(EngineError::BoxTooSmall)?;
        // Fail decomposition *before* paying for the neighbor build, which
        // a plan lays out.
        let plan = match strategy.plan_dims() {
            Some(dims) => Some(SdcPlan::build(
                system.sim_box(),
                system.positions(),
                DecompositionConfig::new(dims, verlet.reach()),
            )?),
            None => None,
        };
        let ctx = ParallelContext::new(threads);
        let half = build_half_list(&ctx, system, verlet, plan.as_ref());
        let full = strategy.needs_full_list().then(|| half.to_full());
        let localwrite = strategy
            .needs_localwrite_plan()
            .then(|| LocalWritePlan::build(half.csr(), localwrite_partitions(threads)));
        let mut engine = ForceEngine {
            potential,
            strategy,
            ctx,
            verlet,
            half,
            full,
            plan,
            localwrite,
            timers: PhaseTimers::new(),
            rebuilds: 0,
            downgrades: Vec::new(),
            metrics: None,
            scratch: Vec::new(),
            lane_occupancy: None,
            sap: SapBuffers::new(),
            balance: None,
            taskgraph: None,
        };
        engine.sync_taskgraph(system);
        Ok(engine)
    }

    /// Like [`ForceEngine::new`], but instead of failing when the requested
    /// strategy's geometric preconditions don't hold, walks the degradation
    /// chain ([`StrategyKind::downgrade`]: SDC 3-D → 2-D → 1-D → striped
    /// locks) until a feasible strategy is found, recording one
    /// [`DowngradeEvent`] per step. Errors unrelated to strategy choice
    /// (e.g. a box smaller than the interaction cutoff) are still returned.
    pub fn with_fallback(
        system: &System,
        potential: PotentialChoice,
        requested: StrategyKind,
        threads: usize,
        skin: f64,
    ) -> Result<ForceEngine, EngineError> {
        let mut kind = requested;
        let mut events = Vec::new();
        loop {
            match ForceEngine::new(system, potential.clone(), kind, threads, skin) {
                Ok(mut engine) => {
                    engine.downgrades = events;
                    return Ok(engine);
                }
                Err(EngineError::Decomposition(err)) => {
                    let Some(next) = kind.downgrade() else {
                        return Err(EngineError::Decomposition(err));
                    };
                    events.push(DowngradeEvent {
                        from: kind,
                        to: next,
                        reason: err.to_string(),
                    });
                    kind = next;
                }
                Err(other) => return Err(other),
            }
        }
    }

    /// The configured strategy.
    #[inline]
    pub fn strategy(&self) -> StrategyKind {
        self.strategy
    }

    /// Worker thread count.
    #[inline]
    pub fn threads(&self) -> usize {
        self.ctx.threads()
    }

    /// The half neighbor list currently in use.
    #[inline]
    pub fn neighbor_list(&self) -> &NeighborList {
        &self.half
    }

    /// The SDC plan, when the strategy uses one.
    #[inline]
    pub fn plan(&self) -> Option<&SdcPlan> {
        self.plan.as_ref()
    }

    /// Accumulated phase timers.
    #[inline]
    pub fn timers(&self) -> &PhaseTimers {
        &self.timers
    }

    /// Resets the phase timers (e.g. after warm-up steps).
    pub fn reset_timers(&mut self) {
        self.timers.reset();
    }

    /// Turns the observability layer on: allocates a [`SimMetrics`] bundle
    /// sized for this engine's thread count and routes every subsequent
    /// scatter sweep, rebuild and force computation through it. Idempotent.
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Arc::new(SimMetrics::new(self.ctx.threads())));
        }
    }

    /// The metrics bundle, when [`ForceEngine::enable_metrics`] was called.
    #[inline]
    pub fn metrics(&self) -> Option<&SimMetrics> {
        self.metrics.as_deref()
    }

    /// Shared handle to the metrics bundle (for drivers that outlive
    /// engine borrows).
    #[inline]
    pub fn metrics_handle(&self) -> Option<Arc<SimMetrics>> {
        self.metrics.clone()
    }

    /// Number of neighbor-list rebuilds performed so far.
    #[inline]
    pub fn rebuilds(&self) -> usize {
        self.rebuilds
    }

    /// Every strategy downgrade recorded so far — at construction (via
    /// [`ForceEngine::with_fallback`]) or mid-run when a rebuild found the
    /// configured decomposition no longer feasible. Empty in the common case.
    #[inline]
    pub fn downgrades(&self) -> &[DowngradeEvent] {
        &self.downgrades
    }

    /// Turns the cost-guided balancer on (see [`crate::balance`]). Runs the
    /// plan search over the current positions and pair counts, adopts the
    /// best decomposition (dims may change when `config.search_dims`), and
    /// arms the mid-run re-plan trigger at every subsequent rebuild.
    ///
    /// Returns `false` — and stays off — when the active strategy is not
    /// plan-backed (SDC or taskgraph; nothing to schedule otherwise) or no
    /// feasible decomposition exists. Results are bitwise-identical to the
    /// unbalanced path for the same decomposition; changing dims changes
    /// nothing but task grouping. The balancer keeps the requested regime,
    /// barriered SDC or task graph, and changes only its dims.
    pub fn enable_balance(&mut self, system: &System, config: BalanceConfig) -> bool {
        let Some(dims) = self.strategy.plan_dims() else {
            return false;
        };
        let threads = self.ctx.threads();
        let params = md_perfmodel::makespan_params(&config.machine, threads);
        let dims_options: Vec<usize> = if config.search_dims {
            vec![1, 2, 3]
        } else {
            vec![dims]
        };
        let Ok(best) = schedule::search_plans(
            system.sim_box(),
            system.positions(),
            self.half.csr(),
            self.verlet.reach(),
            &dims_options,
            threads,
            &params,
        ) else {
            return false;
        };
        self.strategy = with_dims(self.strategy, best.choice.dims);
        let (mut last_busy_ns, mut last_barriers) = (0, 0);
        if let Some(m) = &self.metrics {
            m.scatter.planned_imbalance.set(best.choice.predicted_imbalance);
            last_busy_ns = m.scatter.thread_busy_ns.iter().map(|c| c.get()).sum();
            last_barriers = m.scatter.color_barriers.get();
        }
        self.plan = Some(best.plan);
        self.lay_out_for_plan(system);
        self.balance = Some(BalanceState {
            pair_cost: config.machine.pair_cost,
            config,
            choice: best.choice,
            events: Vec::new(),
            last_busy_ns,
            last_barriers,
        });
        self.sync_taskgraph(system);
        true
    }

    /// Whether the cost-guided balancer is active.
    #[inline]
    pub fn balance_enabled(&self) -> bool {
        self.balance.is_some()
    }

    /// The balancer's current plan choice (dims, per-axis cap, counts and
    /// predicted makespan/imbalance), when balancing is on.
    #[inline]
    pub fn plan_choice(&self) -> Option<PlanChoice> {
        self.balance.as_ref().map(|b| b.choice)
    }

    /// Every mid-run plan change the balancer adopted — the load-balancing
    /// analogue of [`ForceEngine::downgrades`].
    #[inline]
    pub fn rebalance_events(&self) -> &[RebalanceEvent] {
        self.balance.as_ref().map_or(&[], |b| &b.events)
    }

    /// The balancer's EWMA-calibrated per-pair cost, seconds. Starts at the
    /// configured machine constant; updated from measured busy times at
    /// every rebuild when metrics are on.
    #[inline]
    pub fn calibrated_pair_cost(&self) -> Option<f64> {
        self.balance.as_ref().map(|b| b.pair_cost)
    }

    /// EWMA-blends the measured per-pair cost (Δ busy ns over pair visits
    /// since the last calibration) into the balancer's machine model. A
    /// no-op without metrics or when nothing ran since the last rebuild.
    fn calibrate_balance(&mut self) {
        let Some(state) = &mut self.balance else {
            return;
        };
        let Some(m) = &self.metrics else {
            return;
        };
        let Some(plan) = &self.plan else {
            return;
        };
        let busy: u64 = m.scatter.thread_busy_ns.iter().map(|c| c.get()).sum();
        let barriers = m.scatter.color_barriers.get();
        let delta_busy = busy.saturating_sub(state.last_busy_ns);
        let delta_barriers = barriers.saturating_sub(state.last_barriers);
        state.last_busy_ns = busy;
        state.last_barriers = barriers;
        let colors = plan.decomposition().color_count() as u64;
        if colors == 0 || delta_busy == 0 {
            return;
        }
        let sweeps = delta_barriers / colors;
        let pair_visits = sweeps * self.half.entries() as u64;
        if pair_visits == 0 {
            return;
        }
        let measured = delta_busy as f64 * 1e-9 / pair_visits as f64;
        let alpha = state.config.ewma_alpha.clamp(0.0, 1.0);
        state.pair_cost = alpha * measured + (1.0 - alpha) * state.pair_cost;
    }

    /// Post-rebuild balancer pass: LPT-schedules the fresh plan from its new
    /// pair counts, and re-runs the full plan search when the observed
    /// imbalance exceeds what the outgoing plan predicted by the configured
    /// threshold. An adopted change is recorded as a [`RebalanceEvent`].
    fn apply_balance(&mut self, system: &System) {
        if self.balance.is_none() {
            return;
        }
        // A mid-run downgrade may have left the plan-backed strategies
        // entirely; the balancer then has nothing to schedule (it re-arms if
        // a later rebuild restores a plan — it never does today, but the
        // guard keeps this total).
        let Some(dims) = self.strategy.plan_dims() else {
            return;
        };
        let Some(plan) = &mut self.plan else {
            return;
        };
        let state = self.balance.as_mut().expect("checked above");
        let threads = self.ctx.threads();
        let params = md_perfmodel::makespan_params(&state.machine(), threads);
        let costs: Vec<f64> = plan
            .pair_counts(self.half.csr())
            .iter()
            .map(|&c| c as f64)
            .collect();
        let schedule = ColorSchedule::lpt(plan.decomposition(), &costs, threads);

        // Trigger measurement: observed excess over the outgoing plan's
        // prediction when metrics are on, the fresh predicted imbalance
        // itself otherwise.
        let trigger = if let Some(m) = &self.metrics {
            let busy: Vec<u64> = m.scatter.thread_busy_ns.iter().map(|c| c.get()).collect();
            ObservedImbalance::new(busy, m.scatter.total_color_wall_ns(), m.scatter.color_barriers.get())
                .excess_over_plan(state.choice.predicted_imbalance)
        } else {
            schedule.imbalance()
        };

        let mut replanned = false;
        if trigger > state.config.replan_threshold {
            let dims_options: Vec<usize> = if state.config.search_dims {
                vec![1, 2, 3]
            } else {
                vec![dims]
            };
            if let Ok(best) = schedule::search_plans(
                system.sim_box(),
                system.positions(),
                self.half.csr(),
                self.verlet.reach(),
                &dims_options,
                threads,
                &params,
            ) {
                let adopted = best.choice.dims != dims
                    || best.choice.counts != plan.decomposition().counts();
                if adopted {
                    let to = with_dims(self.strategy, best.choice.dims);
                    state.events.push(RebalanceEvent {
                        rebuild: self.rebuilds,
                        observed_imbalance: trigger,
                        from: self.strategy,
                        to,
                        from_counts: plan.decomposition().counts(),
                        to_counts: best.choice.counts,
                        predicted_seconds: best.choice.predicted_seconds,
                    });
                    self.strategy = to;
                    *plan = best.plan;
                    state.choice = best.choice;
                    replanned = true;
                    if let Some(m) = &self.metrics {
                        m.scatter.rebalances.inc();
                    }
                }
            }
        }
        if !replanned {
            // Same decomposition, fresh pair counts: keep the choice's shape
            // but refresh its predictions, and attach the new LPT schedule.
            state.choice.counts = plan.decomposition().counts();
            state.choice.predicted_seconds = schedule.predicted_seconds(&params);
            state.choice.predicted_imbalance = schedule.imbalance();
            plan.set_schedule(schedule);
        }
        if let Some(m) = &self.metrics {
            m.scatter.planned_imbalance.set(state.choice.predicted_imbalance);
        }
        if replanned {
            self.lay_out_for_plan(system);
        }
    }

    /// Lays the half list out for a plan adopted after the list was built
    /// ([`ForceEngine::enable_balance`], a re-plan in `apply_balance`):
    /// [`NeighborList::laid_out`] runs the builder again on the positions
    /// the list was built from, so every row keeps its bytes and no bit of
    /// the trajectory moves. It is no rebuild: it counts none and records no
    /// rebuild or neighbor time. An LPT schedule only reorders a colour's
    /// tasks, whose rows stay contiguous, so it needs no re-layout.
    fn lay_out_for_plan(&mut self, system: &System) {
        if let Some(plan) = &self.plan {
            let order = plan.atom_bins().indices();
            self.half = self
                .ctx
                .install(|| self.half.laid_out(system.sim_box(), order));
        }
    }

    /// Rebuilds list, full list and plan if any atom drifted more than
    /// half the skin. Returns `true` if a rebuild happened.
    pub fn maybe_rebuild(&mut self, system: &System) -> bool {
        if self
            .half
            .needs_rebuild(system.sim_box(), system.positions())
        {
            self.rebuild(system);
            true
        } else {
            false
        }
    }

    /// Unconditionally rebuilds neighbor structures and the SDC plan from
    /// the current positions (the paper's "steps 1 and 2", performed
    /// together with every list update).
    ///
    /// A decomposition valid at construction can become invalid mid-run
    /// (e.g. [`crate::system::System::deform`] shrinking an axis below the
    /// 2·range rule); instead of dying, the engine walks the degradation
    /// chain and records the downgrade (see [`ForceEngine::downgrades`]).
    pub fn rebuild(&mut self, system: &System) {
        // Calibrate the balancer's per-pair cost against the *outgoing* list
        // (the busy time accumulated since the last rebuild was spent on it).
        self.calibrate_balance();
        let verlet = self.verlet;
        let mut strategy = self.strategy;
        let threads = self.ctx.threads();
        let mut events = Vec::new();
        let metrics = self.metrics.clone();
        let ForceEngine {
            ref ctx,
            ref mut timers,
            ..
        } = *self;
        let ((half, full, plan, localwrite), took) = timers.time_measured(Phase::Neighbor, || {
            // The plan first: a surviving plan lays the list out.
            let plan = loop {
                let Some(dims) = strategy.plan_dims() else {
                    break None;
                };
                match SdcPlan::build(
                    system.sim_box(),
                    system.positions(),
                    DecompositionConfig::new(dims, verlet.reach()),
                ) {
                    Ok(p) => break Some(p),
                    Err(err) => {
                        let next = strategy
                            .downgrade()
                            .expect("every plan-backed strategy has a downgrade");
                        events.push(DowngradeEvent {
                            from: strategy,
                            to: next,
                            reason: err.to_string(),
                        });
                        strategy = next;
                    }
                }
            };
            let half = build_half_list(ctx, system, verlet, plan.as_ref());
            let full = strategy.needs_full_list().then(|| half.to_full());
            let localwrite = strategy
                .needs_localwrite_plan()
                .then(|| LocalWritePlan::build(half.csr(), localwrite_partitions(threads)));
            (half, full, plan, localwrite)
        });
        if let Some(m) = &metrics {
            m.rebuild.record(took);
        }
        self.strategy = strategy;
        self.downgrades.extend(events);
        self.half = half;
        self.full = full;
        self.plan = plan;
        self.localwrite = localwrite;
        // The occupancy described the outgoing list's tasks; the next
        // batched density pass measures the fresh one.
        self.lane_occupancy = None;
        self.rebuilds += 1;
        // Re-schedule (and possibly re-plan) the fresh decomposition, then
        // bring the task graph in line with whatever plan survived.
        self.apply_balance(system);
        self.sync_taskgraph(system);
    }

    /// Re-derives the dependency graph from the current plan when the
    /// taskgraph strategy is active (the plan is fresh after every rebuild
    /// and rebalance), and drops it otherwise (a downgrade leaves the graph
    /// for barriered SDC).
    fn sync_taskgraph(&mut self, system: &System) {
        self.taskgraph = match (self.strategy, &self.plan) {
            (StrategyKind::TaskGraph { .. }, Some(plan)) => {
                Some(TaskGraph::build(plan.decomposition(), system.sim_box()))
            }
            _ => None,
        };
    }

    /// Computes forces (and, for EAM, densities and embedding derivatives)
    /// into the system's arrays. Does *not* check for rebuilds — drivers
    /// call [`ForceEngine::maybe_rebuild`] after moving atoms.
    pub fn compute(&mut self, system: &mut System) {
        let start = self.metrics.is_some().then(std::time::Instant::now);
        self.compute_density_phase(system);
        self.compute_force_phase(system);
        if let (Some(m), Some(start)) = (&self.metrics, start) {
            m.force.record(start.elapsed());
        }
    }

    /// The pre-exchange half of [`ForceEngine::compute`]: EAM phases 1–2
    /// (electron densities and embedding derivatives `F'(ρ)` into the
    /// system's `rho`/`fp` arrays). A no-op for single-phase pair
    /// potentials.
    ///
    /// Split out for halo-exchange drivers (`md-shard`): a shard runs this,
    /// overwrites its ghost atoms' `fp` with the owners' values, then calls
    /// [`ForceEngine::compute_force_phase`]. Calling both back-to-back is
    /// exactly [`ForceEngine::compute`] (which also records the metered
    /// force span around the pair).
    pub fn compute_density_phase(&mut self, system: &mut System) {
        match self.potential.clone() {
            PotentialChoice::Eam(p) => {
                // Devirtualization happens here, once per step: resolve the
                // concrete potential and monomorphize the kernels over it,
                // instead of paying virtual calls per pair. Any other
                // implementation runs the same kernels through `dyn`.
                if let Some(a) = p.as_analytic() {
                    self.eam_density_phase(system, a);
                } else if let Some(t) = p.as_tabulated() {
                    self.eam_density_phase(system, t);
                } else {
                    self.eam_density_phase(system, p.as_ref());
                }
            }
            PotentialChoice::Pair(_) => {}
        }
    }

    /// The post-exchange half of [`ForceEngine::compute`]: EAM phase 3
    /// (forces from the `fp` currently in the system), or the single force
    /// phase of a pair potential. For EAM the density phase must have run
    /// first on the same neighbor list.
    pub fn compute_force_phase(&mut self, system: &mut System) {
        match self.potential.clone() {
            PotentialChoice::Eam(p) => {
                if let Some(a) = p.as_analytic() {
                    self.eam_force_phase(system, a);
                } else if let Some(t) = p.as_tabulated() {
                    self.eam_force_phase(system, t);
                } else {
                    self.eam_force_phase(system, p.as_ref());
                }
            }
            PotentialChoice::Pair(p) => self.compute_pair(system, p.as_ref()),
        }
    }

    /// Fraction of 4-wide lane steps that carried real pairs in the last
    /// density sweep (the perf model's lane-efficiency term): real pairs
    /// over `4 · Σ_chunks ⌈pairs_c / 4⌉`, over the row chunks the density
    /// kernel ran (each row's stored pairs, split into chunks of at most
    /// 64), since only a chunk's last step can run partly filled. ~0.96 on
    /// the 65,536-atom benchmark crystal at 3000 K. `Some` after every EAM
    /// density sweep under a row-owning strategy
    /// ([`StrategyKind::owns_rows`]), whichever lane leg ran; `None` under
    /// the baseline strategies, for pair potentials, and after a rebuild
    /// until the next density sweep.
    pub fn lane_occupancy(&self) -> Option<f64> {
        self.lane_occupancy
    }

    pub(crate) fn lane_occupancy_mut(&mut self) -> &mut Option<f64> {
        &mut self.lane_occupancy
    }

    /// Largest embedding density the potential defines, when its domain is
    /// bounded (tabulated potentials). The watchdog compares per-atom
    /// densities against this to report out-of-table extrapolation as a
    /// structured fault.
    pub fn density_limit(&self) -> Option<f64> {
        match &self.potential {
            PotentialChoice::Eam(p) => p.max_density(),
            PotentialChoice::Pair(_) => None,
        }
    }

    /// Potential energy of the current configuration, eV.
    ///
    /// For EAM this uses the densities stored by the last
    /// [`ForceEngine::compute`]; call that first.
    pub fn potential_energy(&self, system: &System) -> f64 {
        match &self.potential {
            PotentialChoice::Eam(p) => eam::eam_energy(&self.half, system, p.as_ref()),
            PotentialChoice::Pair(p) => pair::pair_energy(&self.half, system, p.as_ref()),
        }
    }

    /// Pair virial `W = Σ_pairs r · f_pair`, eV. Pressure is
    /// `(2·KE + W) / (3V)` (in eV/Å³).
    ///
    /// For EAM this uses the embedding derivatives from the last
    /// [`ForceEngine::compute`]; call that first.
    pub fn virial(&self, system: &System) -> f64 {
        match &self.potential {
            PotentialChoice::Eam(p) => eam::eam_virial(&self.half, system, p.as_ref()),
            PotentialChoice::Pair(p) => pair::pair_virial(&self.half, system, p.as_ref()),
        }
    }

    /// Pressure in eV/Å³ (multiply by [`crate::units::EV_PER_A3_TO_GPA`]
    /// for GPa). Uses the last computed forces/densities.
    pub fn pressure(&self, system: &System) -> f64 {
        let v = system.sim_box().volume();
        (2.0 * system.kinetic_energy() + self.virial(system)) / (3.0 * v)
    }

    /// Full pressure tensor (kinetic + configurational), eV/Å³. Its trace/3
    /// equals [`ForceEngine::pressure`]; diagonal components resolve the
    /// uniaxial stresses of the paper's micro-deformation workload.
    pub fn pressure_tensor(&self, system: &System) -> crate::stress::StressTensor {
        let config = match &self.potential {
            PotentialChoice::Eam(p) => eam::eam_stress(&self.half, system, p.as_ref()),
            PotentialChoice::Pair(p) => pair::pair_stress(&self.half, system, p.as_ref()),
        };
        crate::stress::kinetic_stress(system).plus(&config)
    }

    pub(crate) fn exec(&self) -> ScatterExec<'_> {
        ScatterExec {
            ctx: &self.ctx,
            half: self.half.csr(),
            full: self.full.as_ref().map(|f| f.csr()),
            plan: self.plan.as_ref(),
            localwrite: self.localwrite.as_ref(),
            metrics: self.metrics.as_deref().map(|m| &m.scatter),
            sap: Some(&self.sap),
            taskgraph: self.taskgraph.as_ref(),
        }
    }

    pub(crate) fn timers_mut(&mut self) -> &mut PhaseTimers {
        &mut self.timers
    }

    pub(crate) fn scratch_mut(&mut self) -> &mut Vec<eam::PairRecord> {
        &mut self.scratch
    }

    pub(crate) fn ctx(&self) -> &ParallelContext {
        &self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::FE_MASS;
    use md_geometry::LatticeSpec;
    use md_potential::AnalyticEam;

    fn engine(strategy: StrategyKind) -> (System, ForceEngine) {
        let system = System::from_lattice(LatticeSpec::bcc_fe(6), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let eng = ForceEngine::new(&system, pot, strategy, 2, 0.3).unwrap();
        (system, eng)
    }

    #[test]
    fn construction_builds_required_resources() {
        let (_, eng) = engine(StrategyKind::Serial);
        assert!(eng.plan().is_none());
        let (_, eng) = engine(StrategyKind::Redundant);
        assert!(eng.plan().is_none());
        // bcc_fe(6) is too small to decompose (17.2 Å < 2·2·5.97)…
        let sys = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let eng =
            ForceEngine::new(&sys, pot, StrategyKind::Sdc { dims: 3 }, 2, 0.3).unwrap();
        assert!(eng.plan().is_some());
        assert_eq!(eng.threads(), 2);
    }

    #[test]
    fn sdc_on_a_tiny_box_reports_decomposition_error() {
        let system = System::from_lattice(LatticeSpec::bcc_fe(6), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let err = ForceEngine::new(&system, pot, StrategyKind::Sdc { dims: 1 }, 2, 0.3)
            .err()
            .expect("6-cell box cannot host two 2·range subdomains");
        assert!(matches!(err, EngineError::Decomposition(_)));
        assert!(err.to_string().contains("decomposition"));
    }

    #[test]
    fn rebuild_is_triggered_by_drift() {
        let (mut system, mut eng) = engine(StrategyKind::Serial);
        assert!(!eng.maybe_rebuild(&system));
        system.positions_mut()[0].x += 0.2; // > skin/2 = 0.15
        system.wrap();
        assert!(eng.maybe_rebuild(&system));
        assert_eq!(eng.rebuilds(), 1);
        assert!(eng.timers().count(crate::timing::Phase::Neighbor) > 0);
    }

    #[test]
    fn fallback_downgrades_sdc_to_feasible_dims() {
        // bcc_fe(9) (25.8 Å) fits 2 subdomains per axis for range 5.97, so
        // all SDC dims are feasible and no downgrade happens…
        let sys = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let eng =
            ForceEngine::with_fallback(&sys, pot.clone(), StrategyKind::Sdc { dims: 3 }, 2, 0.3)
                .unwrap();
        assert_eq!(eng.strategy(), StrategyKind::Sdc { dims: 3 });
        assert!(eng.downgrades().is_empty());

        // …while bcc_fe(6) (17.2 Å) can host no axis split at all: the chain
        // walks 3 → 2 → 1 → Locks, recording every step.
        let sys = System::from_lattice(LatticeSpec::bcc_fe(6), FE_MASS);
        let eng =
            ForceEngine::with_fallback(&sys, pot, StrategyKind::Sdc { dims: 3 }, 2, 0.3).unwrap();
        assert_eq!(eng.strategy(), StrategyKind::Locks);
        let steps: Vec<(StrategyKind, StrategyKind)> = eng
            .downgrades()
            .iter()
            .map(|e| (e.from, e.to))
            .collect();
        assert_eq!(
            steps,
            vec![
                (StrategyKind::Sdc { dims: 3 }, StrategyKind::Sdc { dims: 2 }),
                (StrategyKind::Sdc { dims: 2 }, StrategyKind::Sdc { dims: 1 }),
                (StrategyKind::Sdc { dims: 1 }, StrategyKind::Locks),
            ]
        );
        assert!(eng.downgrades()[0].reason.contains("axis"));
    }

    #[test]
    fn fallback_keeps_non_strategy_errors() {
        // A box below 2·reach fails minimum-image validation — no strategy
        // change can fix that, so the error must surface.
        let sys = System::from_lattice(LatticeSpec::bcc_fe(3), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let err = ForceEngine::with_fallback(&sys, pot, StrategyKind::Sdc { dims: 3 }, 1, 0.3)
            .err()
            .expect("8.6 Å box cannot satisfy minimum image for reach 5.97");
        assert!(matches!(err, EngineError::BoxTooSmall(_)));
    }

    #[test]
    fn mid_run_rebuild_downgrades_when_box_shrinks() {
        // Feasible at construction (25.8 Å per axis, 1-D split OK)…
        let mut sys = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let mut eng =
            ForceEngine::new(&sys, pot, StrategyKind::Sdc { dims: 1 }, 2, 0.3).unwrap();
        assert!(eng.plan().is_some());
        // …then the box shrinks below the 2·(2·range) rule along x.
        sys.deform(md_geometry::Vec3::new(0.6, 1.0, 1.0));
        eng.rebuild(&sys);
        assert_eq!(eng.strategy(), StrategyKind::Locks);
        assert!(eng.plan().is_none());
        assert_eq!(eng.downgrades().len(), 1);
        assert_eq!(eng.downgrades()[0].from, StrategyKind::Sdc { dims: 1 });
        // The engine still computes correct forces with the downgraded
        // strategy.
        eng.compute(&mut sys);
        assert!(sys.forces().iter().all(|f| f.norm().is_finite()));
    }

    #[test]
    fn balance_requires_an_sdc_strategy() {
        let (system, mut eng) = engine(StrategyKind::Serial);
        assert!(!eng.enable_balance(&system, crate::BalanceConfig::default()));
        assert!(!eng.balance_enabled());
        assert!(eng.plan_choice().is_none());
        assert!(eng.rebalance_events().is_empty());
    }

    #[test]
    fn balance_adopts_the_searched_plan_and_schedules_it() {
        let sys = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let mut eng =
            ForceEngine::new(&sys, pot, StrategyKind::Sdc { dims: 3 }, 2, 0.3).unwrap();
        assert!(eng.enable_balance(&sys, crate::BalanceConfig::default()));
        let choice = eng.plan_choice().expect("balance is on");
        // bcc_fe(9) fits at most 2 subdomains per axis, so every dims yields
        // one task per color and parallelism cannot help — the search picks
        // 1-D for its lower barrier count, and the strategy follows.
        assert_eq!(choice.dims, 1);
        assert_eq!(eng.strategy(), StrategyKind::Sdc { dims: 1 });
        assert!(eng.plan().unwrap().schedule().is_some());
        assert!(choice.predicted_seconds > 0.0);
        assert!(choice.predicted_imbalance >= 1.0);
        assert_eq!(eng.calibrated_pair_cost(), Some(crate::BalanceConfig::default().machine.pair_cost));
    }

    #[test]
    fn balanced_rebuild_reschedules_and_keeps_forces_identical() {
        let sys = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let mut plain = ForceEngine::new(
            &sys,
            pot.clone(),
            StrategyKind::Sdc { dims: 1 },
            2,
            0.3,
        )
        .unwrap();
        let mut balanced =
            ForceEngine::new(&sys, pot, StrategyKind::Sdc { dims: 3 }, 2, 0.3).unwrap();
        balanced.enable_metrics();
        // Pin dims so the metrics gate elsewhere can rely on a fixed color
        // count; here it exercises the caps-only search path.
        assert!(balanced
            .enable_balance(&sys, crate::BalanceConfig::default().pinned_dims()));
        assert_eq!(balanced.strategy(), StrategyKind::Sdc { dims: 3 });

        let mut sys_a = sys.clone();
        let mut sys_b = sys.clone();
        plain.compute(&mut sys_a);
        balanced.compute(&mut sys_b);
        assert_eq!(sys_a.forces().len(), sys_b.forces().len());
        for (a, b) in sys_a.forces().iter().zip(sys_b.forces()) {
            assert!((a.x - b.x).abs() <= 1e-10, "{a:?} vs {b:?}");
            assert!((a.y - b.y).abs() <= 1e-10);
            assert!((a.z - b.z).abs() <= 1e-10);
        }

        // A rebuild re-runs the balancer pass: the fresh plan is scheduled
        // again and the choice's predictions are refreshed, not dropped.
        balanced.rebuild(&sys_b);
        assert!(balanced.plan().unwrap().schedule().is_some());
        assert!(balanced.plan_choice().unwrap().predicted_seconds > 0.0);
        let m = balanced.metrics().unwrap();
        assert!(m.scatter.planned_imbalance.get() >= 1.0);
    }

    #[test]
    fn taskgraph_engine_builds_plan_and_runner_and_matches_sdc() {
        let mut sys = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let mut eng =
            ForceEngine::new(&sys, pot.clone(), StrategyKind::TaskGraph { dims: 2 }, 4, 0.3)
                .unwrap();
        assert_eq!(eng.strategy(), StrategyKind::TaskGraph { dims: 2 });
        assert!(eng.plan().is_some());
        assert!(eng.downgrades().is_empty());
        eng.compute(&mut sys);
        let mut reference = sys.clone();
        let mut sdc =
            ForceEngine::new(&reference.clone(), pot, StrategyKind::Sdc { dims: 2 }, 4, 0.3)
                .unwrap();
        sdc.compute(&mut reference);
        // Same plan, same color-major summation order: the same bits.
        assert_eq!(sys.forces(), reference.forces());
        assert_eq!(sys.rho(), reference.rho());
    }

    #[test]
    fn taskgraph_mid_run_shrink_downgrades_through_sdc() {
        let mut sys = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let mut eng =
            ForceEngine::new(&sys, pot, StrategyKind::TaskGraph { dims: 1 }, 2, 0.3).unwrap();
        sys.deform(md_geometry::Vec3::new(0.6, 1.0, 1.0));
        eng.rebuild(&sys);
        assert_eq!(eng.strategy(), StrategyKind::Locks);
        assert!(eng.plan().is_none());
        assert_eq!(eng.downgrades()[0].from, StrategyKind::TaskGraph { dims: 1 });
        eng.compute(&mut sys);
        assert!(sys.forces().iter().all(|f| f.norm().is_finite()));
    }

    #[test]
    fn balance_accepts_the_taskgraph_strategy() {
        let sys = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let mut eng =
            ForceEngine::new(&sys, pot, StrategyKind::TaskGraph { dims: 3 }, 2, 0.3).unwrap();
        assert!(eng.enable_balance(&sys, crate::BalanceConfig::default()));
        // The balancer keeps the graph regime and moves it onto the
        // searched plan's dims, with a graph built for that plan.
        let choice = eng.plan_choice().expect("balance is on");
        assert_eq!(eng.strategy(), StrategyKind::TaskGraph { dims: choice.dims });
        assert!(eng.exec().taskgraph.is_some());
        let mut s = sys.clone();
        eng.compute(&mut s);
        assert!(s.forces().iter().all(|f| f.norm().is_finite()));
    }

    /// Holds the engine's half list to the layout its sweep reads: with a
    /// plan, every task's rows (`atoms_of(s)`, in visiting order) form one
    /// run of windows, `window(a[k]).end == window(a[k + 1]).start`;
    /// without one, the windows run in atom order.
    fn assert_laid_out_for_the_sweep(eng: &ForceEngine, when: &str) {
        let csr = eng.neighbor_list().csr();
        let strategy = eng.strategy();
        match eng.plan() {
            Some(plan) => {
                assert!(
                    strategy.plan_dims().is_some(),
                    "{when}: {strategy} has a plan"
                );
                for s in 0..plan.decomposition().subdomain_count() {
                    for a in plan.atoms_of(s).windows(2) {
                        let (here, next) = (a[0] as usize, a[1] as usize);
                        assert_eq!(
                            csr.window(here).end,
                            csr.window(next).start,
                            "{when}: {strategy} task {s} breaks its run at row {here}"
                        );
                    }
                }
            }
            None => {
                for i in 1..csr.rows() {
                    assert_eq!(
                        csr.window(i - 1).end,
                        csr.window(i).start,
                        "{when}: {strategy} is not in atom order at row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_half_list_is_laid_out_in_the_sweeps_row_order() {
        let pot = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        for strategy in [
            StrategyKind::Serial,
            StrategyKind::Sdc { dims: 3 },
            StrategyKind::Sdc { dims: 2 },
            StrategyKind::TaskGraph { dims: 2 },
        ] {
            let mut sys = System::from_lattice(LatticeSpec::bcc_fe(10), FE_MASS);
            let mut eng = ForceEngine::new(&sys, pot.clone(), strategy, 2, 0.3).unwrap();
            assert_eq!(eng.plan().is_some(), strategy != StrategyKind::Serial);
            assert_laid_out_for_the_sweep(&eng, "after new");
            for (k, p) in sys.positions_mut().iter_mut().enumerate() {
                p.x += 0.4 * (0.917 * k as f64).sin();
            }
            sys.wrap();
            eng.rebuild(&sys);
            assert_laid_out_for_the_sweep(&eng, "after a rebuild");
        }

        // The balancer adopts a 1-D plan for a 3-D engine on bcc_fe(9): the
        // list follows the adopted plan's tasks, not the one it was built for.
        let sys = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
        for strategy in [
            StrategyKind::Sdc { dims: 3 },
            StrategyKind::TaskGraph { dims: 3 },
        ] {
            let mut eng = ForceEngine::new(&sys, pot.clone(), strategy, 2, 0.3).unwrap();
            let rebuilds = eng.rebuilds();
            assert!(eng.enable_balance(&sys, crate::BalanceConfig::default()));
            assert_eq!(
                eng.strategy().plan_dims(),
                Some(1),
                "{strategy}: a different plan"
            );
            assert_laid_out_for_the_sweep(&eng, "after enable_balance");
            assert_eq!(eng.rebuilds(), rebuilds, "a re-layout is no rebuild");
            assert_eq!(eng.timers().count(crate::timing::Phase::Neighbor), 0);
        }

        // A rebuild that plans in 3-D, after which the hair-trigger
        // balancer re-plans to 1-D: the list follows the adopted plan.
        let config = crate::BalanceConfig {
            replan_threshold: 0.0,
            ..crate::BalanceConfig::default()
        };
        let mut eng =
            ForceEngine::new(&sys, pot.clone(), StrategyKind::Sdc { dims: 3 }, 2, 0.3).unwrap();
        assert!(eng.enable_balance(&sys, config));
        eng.strategy = StrategyKind::Sdc { dims: 3 };
        eng.rebuild(&sys);
        assert_eq!(eng.rebalance_events().len(), 1, "the rebuild re-planned");
        assert_eq!(eng.strategy(), StrategyKind::Sdc { dims: 1 });
        assert_laid_out_for_the_sweep(&eng, "after a re-plan");

        // A mid-run downgrade to locks drops the plan: atom order again.
        let mut sys = System::from_lattice(LatticeSpec::bcc_fe(9), FE_MASS);
        let mut eng = ForceEngine::new(&sys, pot, StrategyKind::Sdc { dims: 1 }, 2, 0.3).unwrap();
        sys.deform(md_geometry::Vec3::new(0.6, 1.0, 1.0));
        eng.rebuild(&sys);
        assert_eq!(eng.strategy(), StrategyKind::Locks);
        assert_laid_out_for_the_sweep(&eng, "after a downgrade");
    }

    #[test]
    fn potential_choice_reports_kind_and_cutoff() {
        let eam = PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        assert!(eam.is_eam());
        assert_eq!(eam.cutoff(), 5.67);
        let lj = PotentialChoice::Pair(Arc::new(md_potential::LennardJones::reduced(1.0, 1.0)));
        assert!(!lj.is_eam());
        assert!(format!("{lj:?}").contains("Pair"));
    }
}
