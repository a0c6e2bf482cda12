//! The irregular-reduction strategies and their shared entry point.
//!
//! Each submodule implements one of the paper's strategies as a free
//! function; [`ScatterExec`] bundles the resources (thread pool, neighbor
//! CSRs, SDC plan) and dispatches on [`StrategyKind`]. The benchmark harness
//! and the MD engine both go through this single entry point, so every
//! strategy sees exactly the same kernels and data.

pub mod atomic;
pub mod critical;
pub mod localwrite;
pub mod locked;
pub mod privatized;
pub mod redundant;
pub mod sdc;
pub mod serial;

use crate::metrics::ScatterMetrics;
use crate::plan::SdcPlan;
use crate::scatter::{pair_task, PairTerm, ScatterValue, TaskRows};
use crate::taskgraph::{self, TaskGraph};
use crate::ParallelContext;
use md_base::pool::SharedSlice;
use md_neighbor::Csr;

/// Selects an irregular-reduction parallelization strategy (paper §I
/// taxonomy; see the crate docs for the mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StrategyKind {
    /// Single-threaded reference sweep over the half list.
    Serial,
    /// Spatial Decomposition Coloring with `dims` decomposed axes
    /// (the paper's contribution; `dims ∈ 1..=3`).
    Sdc {
        /// Number of decomposed axes (1, 2 or 3).
        dims: usize,
    },
    /// One global lock around every scatter update (paper's CS baseline).
    Critical,
    /// Lock-free CAS adds per update (a class-1 variant the paper names:
    /// "critical region, atomic or lock").
    Atomic,
    /// Striped per-atom locks (the paper's remaining class-1 variant:
    /// "… or lock") — parallel except on true stripe collisions.
    Locks,
    /// LOCALWRITE (paper class 3, Han & Tseng): inspector-partitioned
    /// iteration space, boundary pairs computed redundantly by both sides,
    /// all writes local — no synchronization.
    LocalWrite,
    /// Share-Array Privatization: thread-private copies merged serially
    /// (paper's SAP baseline).
    Privatized,
    /// Redundant Computation over a full neighbor list (paper's RC
    /// baseline): gather-only, 2× pair computations.
    Redundant,
    /// Dependency-graph scheduling of the SDC subdomain tasks: the per-color
    /// barrier replaced by conflict edges and a work-stealing pool
    /// ([`crate::taskgraph`]); `dims` selects the decomposition like
    /// [`StrategyKind::Sdc`].
    TaskGraph {
        /// Number of decomposed axes (1, 2 or 3).
        dims: usize,
    },
}

impl StrategyKind {
    /// Short machine-readable name (used by the bench harness CLI).
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::Serial => "serial",
            StrategyKind::Sdc { dims: 1 } => "sdc1d",
            StrategyKind::Sdc { dims: 2 } => "sdc2d",
            StrategyKind::Sdc { dims: 3 } => "sdc3d",
            StrategyKind::Sdc { .. } => "sdc",
            StrategyKind::Critical => "cs",
            StrategyKind::Atomic => "atomic",
            StrategyKind::Locks => "locks",
            StrategyKind::LocalWrite => "localwrite",
            StrategyKind::Privatized => "sap",
            StrategyKind::Redundant => "rc",
            StrategyKind::TaskGraph { dims: 1 } => "taskgraph1d",
            StrategyKind::TaskGraph { dims: 2 } => "taskgraph2d",
            StrategyKind::TaskGraph { dims: 3 } => "taskgraph3d",
            StrategyKind::TaskGraph { .. } => "taskgraph",
        }
    }

    /// Parses the names produced by [`StrategyKind::name`].
    pub fn parse(s: &str) -> Option<StrategyKind> {
        Some(match s {
            "serial" => StrategyKind::Serial,
            "sdc1d" => StrategyKind::Sdc { dims: 1 },
            "sdc2d" | "sdc" => StrategyKind::Sdc { dims: 2 },
            "sdc3d" => StrategyKind::Sdc { dims: 3 },
            "cs" | "critical" => StrategyKind::Critical,
            "atomic" => StrategyKind::Atomic,
            "locks" | "locked" => StrategyKind::Locks,
            "localwrite" | "lw" => StrategyKind::LocalWrite,
            "sap" | "privatized" => StrategyKind::Privatized,
            "rc" | "redundant" => StrategyKind::Redundant,
            "taskgraph1d" => StrategyKind::TaskGraph { dims: 1 },
            "taskgraph2d" | "taskgraph" => StrategyKind::TaskGraph { dims: 2 },
            "taskgraph3d" => StrategyKind::TaskGraph { dims: 3 },
            _ => return None,
        })
    }

    /// Every concrete strategy (the paper's Fig. 9 set plus the remaining
    /// class-1 variants and the taskgraph scheduler).
    pub fn all() -> [StrategyKind; 13] {
        [
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
            StrategyKind::TaskGraph { dims: 1 },
            StrategyKind::TaskGraph { dims: 2 },
            StrategyKind::TaskGraph { dims: 3 },
        ]
    }

    /// `true` for strategies whose floating-point summation order is fixed,
    /// making results bit-reproducible run to run.
    pub fn is_deterministic(&self) -> bool {
        !matches!(
            self,
            StrategyKind::Critical | StrategyKind::Atomic | StrategyKind::Locks
        )
    }

    /// `true` if the strategy consumes the full (symmetric) neighbor list.
    pub fn needs_full_list(&self) -> bool {
        matches!(self, StrategyKind::Redundant)
    }

    /// `true` if the strategy needs an [`SdcPlan`].
    pub fn needs_plan(&self) -> bool {
        matches!(
            self,
            StrategyKind::Sdc { .. } | StrategyKind::TaskGraph { .. }
        )
    }

    /// The decomposition dimensionality for plan-backed strategies
    /// (`Sdc`/`TaskGraph`), `None` otherwise.
    pub fn plan_dims(&self) -> Option<usize> {
        match self {
            StrategyKind::Sdc { dims } | StrategyKind::TaskGraph { dims } => Some(*dims),
            _ => None,
        }
    }

    /// `true` if the strategy needs a LOCALWRITE inspector plan.
    pub fn needs_localwrite_plan(&self) -> bool {
        matches!(self, StrategyKind::LocalWrite)
    }

    /// `true` for the row-owning strategies — Serial, SDC and the task
    /// graph — whose tasks each own whole rows of the half list, with the
    /// write footprints of concurrently running tasks disjoint. These are
    /// the strategies [`ScatterExec::run_tasks`] runs.
    pub fn owns_rows(&self) -> bool {
        matches!(
            self,
            StrategyKind::Serial | StrategyKind::Sdc { .. } | StrategyKind::TaskGraph { .. }
        )
    }

    /// The next-best strategy when this one is infeasible for the current
    /// box geometry: SDC sheds decomposed axes one at a time (3 → 2 → 1) —
    /// each step weakens the geometric precondition — and finally falls back
    /// to [`StrategyKind::Serial`], which has no geometric precondition at
    /// all and, like every link of the chain, is bitwise reproducible at
    /// any thread count: a downgraded run keeps the determinism contract.
    /// (Striped [`StrategyKind::Locks`] are parallel and as free of
    /// preconditions, but add in scheduling order.) Strategies without
    /// preconditions have nothing to degrade to.
    pub fn downgrade(&self) -> Option<StrategyKind> {
        match self {
            StrategyKind::Sdc { dims } if *dims > 1 => Some(StrategyKind::Sdc { dims: dims - 1 }),
            StrategyKind::Sdc { .. } => Some(StrategyKind::Serial),
            // The taskgraph scheduler's safe harbor is barriered SDC at the
            // same decomposition (same plan, same summation order), from
            // which the SDC chain continues.
            StrategyKind::TaskGraph { dims } => Some(StrategyKind::Sdc { dims: *dims }),
            _ => None,
        }
    }
}

/// A recorded strategy downgrade: the engine replaced an infeasible
/// strategy with the next one in the degradation chain (see
/// [`StrategyKind::downgrade`]) instead of failing the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DowngradeEvent {
    /// The strategy that could not be used.
    pub from: StrategyKind,
    /// The replacement that was tried next.
    pub to: StrategyKind,
    /// Why `from` was infeasible (human-readable).
    pub reason: String,
}

impl std::fmt::Display for DowngradeEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "strategy downgraded {} -> {}: {}", self.from, self.to, self.reason)
    }
}

impl std::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The resources a scatter execution may need. Build once per neighbor-list
/// rebuild, run many times (typically twice per time-step: densities and
/// forces).
pub struct ScatterExec<'a> {
    /// Thread pool to run on.
    pub ctx: &'a ParallelContext,
    /// Half neighbor list (every strategy except `Redundant`).
    pub half: &'a Csr,
    /// Full neighbor list (`Redundant` only).
    pub full: Option<&'a Csr>,
    /// SDC plan (`Sdc` only).
    pub plan: Option<&'a SdcPlan>,
    /// LOCALWRITE inspector plan (`LocalWrite` only).
    pub localwrite: Option<&'a localwrite::LocalWritePlan>,
    /// Instrumentation sink ([`crate::metrics`]); `None` disables all
    /// recording at zero cost in the pair loops.
    pub metrics: Option<&'a ScatterMetrics>,
    /// Reusable SAP private-copy buffers (`Privatized` only); `None` falls
    /// back to per-sweep allocation.
    pub sap: Option<&'a privatized::SapBuffers>,
    /// The current plan's conflict DAG (`TaskGraph` only).
    pub taskgraph: Option<&'a TaskGraph>,
}

impl ScatterExec<'_> {
    /// Runs the scatter: `out[i] += Σ to_i`, `out[j] += Σ to_j` over all
    /// stored pairs, using `kind`'s synchronization scheme.
    ///
    /// `out` is **accumulated into**, not cleared — callers zero it first
    /// when appropriate (matching the paper's loop structure, where `rho[]`
    /// and `force[]` are reset at the start of each step).
    ///
    /// # Panics
    /// Panics if `kind` needs a resource (`full`, `plan`) this exec lacks,
    /// or if `plan`'s dimensionality does not match `Sdc { dims }`.
    pub fn run<V: ScatterValue>(
        &self,
        kind: StrategyKind,
        out: &mut [V],
        kernel: &(impl Fn(usize, usize) -> Option<PairTerm<V>> + Sync),
    ) {
        assert_eq!(
            out.len(),
            self.half.rows(),
            "output length must match atom count"
        );
        match kind {
            StrategyKind::Serial | StrategyKind::Sdc { .. } | StrategyKind::TaskGraph { .. } => {
                // SAFETY: `run_tasks` gives every task a private footprint.
                let task = |rows: TaskRows<'_>, out: &SharedSlice<'_, V>| unsafe {
                    pair_task(self.half, rows, out, kernel)
                };
                self.run_tasks(kind, out, &task);
            }
            StrategyKind::Critical => {
                critical::scatter_critical_metered(self.ctx, self.half, out, kernel, self.metrics)
            }
            StrategyKind::Atomic => atomic::scatter_atomic(self.ctx, self.half, out, kernel),
            StrategyKind::Locks => {
                locked::scatter_locked_metered(self.ctx, self.half, out, kernel, self.metrics)
            }
            StrategyKind::LocalWrite => {
                let plan = self
                    .localwrite
                    .expect("LocalWrite strategy requires an inspector plan");
                localwrite::scatter_localwrite(self.ctx, plan, out, kernel);
            }
            StrategyKind::Privatized => privatized::scatter_privatized_pooled(
                self.ctx,
                self.half,
                out,
                kernel,
                self.metrics,
                self.sap,
            ),
            StrategyKind::Redundant => {
                let full = self.full.expect("Redundant strategy requires a full list");
                redundant::scatter_redundant_metered(self.ctx, full, out, kernel, self.metrics);
            }
        }
    }

    /// The task-sweep entry point of the row-owning strategies
    /// ([`StrategyKind::owns_rows`]): runs `task(rows, out)` once per task
    /// of `kind`'s sweep, and every row of the half list goes to exactly
    /// one task.
    ///
    /// * Serial runs all rows as one task.
    /// * SDC runs each subdomain's [`SdcPlan::atoms_of`], color by color,
    ///   with a barrier between colors.
    /// * The task graph runs each DAG task once its conflicting tasks of
    ///   earlier colors are done: SDC's order without the barrier, so the
    ///   two sweeps give bitwise-equal results on the same plan.
    ///
    /// A task may write `out` at its rows and at their half-list neighbors,
    /// and nowhere else; no concurrently running task shares any of those
    /// elements. Metering and the debug-build footprint and independence
    /// checks are those of the strategy's sweep ([`sdc::sweep_sdc`],
    /// [`taskgraph::sweep_taskgraph`]).
    ///
    /// # Panics
    /// Panics if `kind` does not own rows, if it needs a resource (`plan`,
    /// `taskgraph`) this exec lacks, or if the plan's dimensionality does
    /// not match `kind`'s.
    pub fn run_tasks<V: ScatterValue>(
        &self,
        kind: StrategyKind,
        out: &mut [V],
        task: &(impl Fn(TaskRows<'_>, &SharedSlice<'_, V>) + Sync),
    ) {
        assert_eq!(
            out.len(),
            self.half.rows(),
            "output length must match atom count"
        );
        match kind {
            StrategyKind::Serial => serial::sweep_serial(self.half, out, task),
            StrategyKind::Sdc { dims } => {
                let plan = self.plan.expect("SDC strategy requires a plan");
                assert_eq!(
                    plan.decomposition().dims(),
                    dims,
                    "plan dimensionality does not match StrategyKind::Sdc"
                );
                sdc::sweep_sdc(self.ctx, plan, self.half, out, task, self.metrics);
            }
            StrategyKind::TaskGraph { dims } => {
                let plan = self.plan.expect("TaskGraph strategy requires a plan");
                assert_eq!(
                    plan.decomposition().dims(),
                    dims,
                    "plan dimensionality does not match StrategyKind::TaskGraph"
                );
                let graph = self
                    .taskgraph
                    .expect("TaskGraph strategy requires a task graph");
                taskgraph::sweep_taskgraph(
                    self.ctx,
                    graph,
                    plan,
                    self.half,
                    out,
                    task,
                    self.metrics,
                );
            }
            _ => panic!("{kind} does not own rows; it has no task sweep"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::DecompositionConfig;
    use md_geometry::{LatticeSpec, SimBox, Vec3};
    use md_neighbor::{NeighborList, VerletConfig};

    const CUTOFF: f64 = 5.67;
    const SKIN: f64 = 0.3;

    struct Fixture {
        pos: Vec<Vec3>,
        sim_box: SimBox,
        half: md_neighbor::Csr,
        full: md_neighbor::Csr,
        plans: Vec<SdcPlan>,
        lw: localwrite::LocalWritePlan,
    }

    fn fixture() -> Fixture {
        let (sim_box, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&sim_box, &pos, VerletConfig::half(CUTOFF, SKIN));
        let full = nl.to_full();
        let plans = (1..=3)
            .map(|dims| {
                SdcPlan::build(&sim_box, &pos, DecompositionConfig::new(dims, CUTOFF + SKIN))
                    .unwrap()
            })
            .collect();
        let lw = localwrite::LocalWritePlan::build(nl.csr(), 16);
        Fixture {
            pos,
            sim_box,
            half: nl.csr().clone(),
            full: full.csr().clone(),
            plans,
            lw,
        }
    }

    /// The conflict DAG for taskgraph kinds, `None` otherwise.
    fn graph_for(f: &Fixture, kind: StrategyKind) -> Option<TaskGraph> {
        match kind {
            StrategyKind::TaskGraph { dims } => {
                Some(TaskGraph::build(f.plans[dims - 1].decomposition(), &f.sim_box))
            }
            _ => None,
        }
    }

    fn exec_for<'a>(
        f: &'a Fixture,
        kind: StrategyKind,
        ctx: &'a ParallelContext,
        graph: Option<&'a TaskGraph>,
        metrics: Option<&'a ScatterMetrics>,
    ) -> ScatterExec<'a> {
        ScatterExec {
            ctx,
            half: &f.half,
            full: Some(&f.full),
            plan: kind.plan_dims().map(|dims| &f.plans[dims - 1]),
            localwrite: Some(&f.lw),
            metrics,
            sap: None,
            taskgraph: graph,
        }
    }

    fn run_density(f: &Fixture, kind: StrategyKind, threads: usize) -> Vec<f64> {
        let ctx = ParallelContext::new(threads);
        let graph = graph_for(f, kind);
        let exec = exec_for(f, kind, &ctx, graph.as_ref(), None);
        let pos = &f.pos;
        let sim_box = &f.sim_box;
        let mut rho = vec![0.0f64; pos.len()];
        // A density-like symmetric kernel with a sharp cutoff, so the skin
        // pairs exercise the `None` path.
        exec.run(kind, &mut rho, &|i, j| {
            let r2 = sim_box.distance_sq(pos[i], pos[j]);
            if r2 < CUTOFF * CUTOFF {
                Some(PairTerm::symmetric((-r2).exp() + 0.01))
            } else {
                None
            }
        });
        rho
    }

    fn run_force(f: &Fixture, kind: StrategyKind, threads: usize) -> Vec<Vec3> {
        let ctx = ParallelContext::new(threads);
        let graph = graph_for(f, kind);
        let exec = exec_for(f, kind, &ctx, graph.as_ref(), None);
        let pos = &f.pos;
        let sim_box = &f.sim_box;
        let mut force = vec![Vec3::ZERO; pos.len()];
        // An antisymmetric force-like kernel: f(i,j) = -f(j,i) by
        // construction, as Redundant requires.
        exec.run(kind, &mut force, &|i, j| {
            let d = sim_box.min_image(pos[i], pos[j]);
            let r2 = d.norm_sq();
            if r2 < CUTOFF * CUTOFF {
                Some(PairTerm::newton(d * (1.0 / (1.0 + r2))))
            } else {
                None
            }
        });
        force
    }

    fn assert_close_f64(a: &[f64], b: &[f64], tol: f64, what: &str) {
        for (k, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * x.abs().max(1.0),
                "{what}: element {k} differs: {x} vs {y}"
            );
        }
    }

    #[test]
    fn all_strategies_agree_on_densities() {
        let f = fixture();
        let reference = run_density(&f, StrategyKind::Serial, 1);
        for kind in StrategyKind::all() {
            for threads in [1, 2, 4] {
                let got = run_density(&f, kind, threads);
                assert_close_f64(&reference, &got, 1e-12, &format!("{kind} t={threads}"));
            }
        }
    }

    #[test]
    fn all_strategies_agree_on_forces() {
        let f = fixture();
        let reference = run_force(&f, StrategyKind::Serial, 1);
        for kind in StrategyKind::all() {
            let got = run_force(&f, kind, 4);
            for (k, (a, b)) in reference.iter().zip(&got).enumerate() {
                assert!(
                    (*a - *b).norm() <= 1e-11 * a.norm().max(1.0),
                    "{kind}: force {k} differs: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn newton_kernel_forces_sum_to_zero() {
        let f = fixture();
        for kind in [
            StrategyKind::Serial,
            StrategyKind::Sdc { dims: 2 },
            StrategyKind::Privatized,
            StrategyKind::Redundant,
        ] {
            let force = run_force(&f, kind, 2);
            let total: Vec3 = force.iter().sum();
            assert!(
                total.norm() < 1e-9,
                "{kind}: net force {total} violates Newton's third law"
            );
        }
    }

    #[test]
    fn deterministic_strategies_are_bit_reproducible() {
        let f = fixture();
        for kind in StrategyKind::all() {
            if !kind.is_deterministic() {
                continue;
            }
            let a = run_density(&f, kind, 4);
            let b = run_density(&f, kind, 4);
            assert_eq!(a, b, "{kind} not reproducible");
        }
    }

    /// The row-owning kinds: the ones with a task sweep.
    const ROW_OWNING: [StrategyKind; 7] = [
        StrategyKind::Serial,
        StrategyKind::Sdc { dims: 1 },
        StrategyKind::Sdc { dims: 2 },
        StrategyKind::Sdc { dims: 3 },
        StrategyKind::TaskGraph { dims: 1 },
        StrategyKind::TaskGraph { dims: 2 },
        StrategyKind::TaskGraph { dims: 3 },
    ];

    /// The density kernel of [`run_density`] replayed on one thread in
    /// `kind`'s task order: rows ascending for Serial, subdomains color by
    /// color for SDC and the task graph — the order in which the parallel
    /// sweeps add into every shared element.
    fn replay_task_order(f: &Fixture, kind: StrategyKind) -> Vec<f64> {
        let kernel = |i: usize, j: usize| {
            let r2 = f.sim_box.distance_sq(f.pos[i], f.pos[j]);
            (r2 < CUTOFF * CUTOFF).then(|| PairTerm::symmetric((-r2).exp() + 0.01))
        };
        let mut out = vec![0.0f64; f.pos.len()];
        let Some(dims) = kind.plan_dims() else {
            serial::scatter_serial(&f.half, &mut out, &kernel);
            return out;
        };
        let plan = &f.plans[dims - 1];
        let order = (0..plan.decomposition().color_count()).flat_map(|c| plan.ordered_of_color(c));
        for &s in order {
            for &i in plan.atoms_of(s as usize) {
                let i = i as usize;
                for &j in f.half.row(i) {
                    if let Some(t) = kernel(i, j as usize) {
                        out[i] += t.to_i;
                        out[j as usize] += t.to_j;
                    }
                }
            }
        }
        out
    }

    #[test]
    fn task_sweeps_partition_the_rows_and_carry_the_per_pair_sweeps() {
        use std::sync::atomic::{AtomicU32, Ordering};
        use std::sync::Mutex;
        let f = fixture();
        let rows = f.half.rows();
        for kind in ROW_OWNING {
            assert!(kind.owns_rows(), "{kind}");
            let graph = graph_for(&f, kind);
            let replay = replay_task_order(&f, kind);
            for threads in [1, 2, 4] {
                let ctx = ParallelContext::new(threads);
                let exec = exec_for(&f, kind, &ctx, graph.as_ref(), None);
                let hits: Vec<AtomicU32> = (0..rows).map(|_| AtomicU32::new(0)).collect();
                let tasks = Mutex::new(Vec::new());
                let mut out = vec![0.0f64; rows];
                exec.run_tasks(kind, &mut out, &|task_rows, _| {
                    for i in task_rows {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                    tasks.lock().unwrap().push(match task_rows {
                        TaskRows::All(n) => Err(n),
                        TaskRows::Atoms(atoms) => Ok(atoms.to_vec()),
                    });
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "{kind} t={threads}: every row goes to exactly one task per sweep"
                );
                let tasks = tasks.into_inner().unwrap();
                match kind.plan_dims() {
                    None => assert_eq!(tasks, [Err(rows)], "{kind}: one task over all rows"),
                    Some(dims) => {
                        // Plan-backed tasks receive exactly the subdomains'
                        // atom lists, each once.
                        let plan = &f.plans[dims - 1];
                        let mut got = tasks;
                        let mut expect: Vec<Result<Vec<u32>, usize>> =
                            (0..plan.decomposition().subdomain_count())
                                .map(|s| Ok(plan.atoms_of(s).to_vec()))
                                .collect();
                        got.sort();
                        expect.sort();
                        assert_eq!(got, expect, "{kind} t={threads}: tasks are atoms_of(s)");
                    }
                }
                // The per-pair `run` rides on the task sweep: bitwise equal to
                // `scatter_serial` replayed in the strategy's task order, at
                // every thread count (for Serial that is `scatter_serial`).
                assert_eq!(
                    run_density(&f, kind, threads),
                    replay,
                    "{kind} t={threads}: per-pair run differs from its serial replay"
                );
            }
        }
    }

    /// Marks task `me` of a pair started, then waits for the other one to
    /// start. `false` when the deadline passes first: the two never ran at
    /// once.
    fn meet(started: &[std::sync::atomic::AtomicBool; 2], me: usize) -> bool {
        use std::sync::atomic::Ordering;
        use std::time::{Duration, Instant};
        started[me].store(true, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !started[1 - me].load(Ordering::SeqCst) {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn metered_two_thread_task_sweeps_keep_busy_time_and_counters() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let f = fixture();
        let ctx = ParallelContext::new(2);
        for kind in ROW_OWNING.into_iter().filter(|k| k.needs_plan()) {
            let graph = graph_for(&f, kind);
            let plan = &f.plans[kind.plan_dims().unwrap() - 1];
            let decomp = plan.decomposition();
            let (colors, subdomains) =
                (decomp.color_count() as u64, decomp.subdomain_count() as u64);
            // The first and last task of color 0 wait for each other to
            // start, so each worker runs one of them: both sweeps run
            // same-color tasks at once.
            let first = plan.ordered_of_color(0);
            let pair = [first[0], first[first.len() - 1]].map(|s| plan.atoms_of(s as usize));
            let started = [AtomicBool::new(false), AtomicBool::new(false)];
            let met = [AtomicBool::new(false), AtomicBool::new(false)];
            let tasks_metrics = ScatterMetrics::new(2);
            let pairs_metrics = ScatterMetrics::new(2);
            let mut out = vec![0.0f64; f.half.rows()];
            exec_for(&f, kind, &ctx, graph.as_ref(), Some(&tasks_metrics)).run_tasks(
                kind,
                &mut out,
                &|rows, _| {
                    if let Some(me) = pair.iter().position(|&p| rows == TaskRows::Atoms(p)) {
                        met[me].store(meet(&started, me), Ordering::SeqCst);
                    }
                },
            );
            assert_eq!(
                met.map(AtomicBool::into_inner),
                [true, true],
                "{kind}: two color-0 tasks never ran at once"
            );
            exec_for(&f, kind, &ctx, graph.as_ref(), Some(&pairs_metrics)).run(
                kind,
                &mut out,
                &|_, _| Some(PairTerm::symmetric(1.0)),
            );
            for m in [&tasks_metrics, &pairs_metrics] {
                match kind {
                    StrategyKind::Sdc { .. } => {
                        assert_eq!(
                            m.color_barriers.get(),
                            colors,
                            "{kind}: one barrier per color"
                        );
                        assert_eq!(m.tasks.get(), 0, "{kind}: barriered sweeps count no tasks");
                    }
                    _ => {
                        assert_eq!(m.color_barriers.get(), 0, "{kind}: no color barriers");
                        assert_eq!(m.tasks.get(), subdomains, "{kind}: every task counted");
                        assert_eq!(m.ready_latency.count(), subdomains, "{kind}");
                    }
                }
            }
            for w in 0..2 {
                let busy = tasks_metrics.thread_busy_ns[w].get();
                assert!(busy > 0, "{kind}: worker {w} recorded no busy time");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not own rows")]
    fn task_sweep_of_a_baseline_strategy_panics() {
        let f = fixture();
        let ctx = ParallelContext::new(1);
        let mut out = vec![0.0f64; f.pos.len()];
        exec_for(&f, StrategyKind::Atomic, &ctx, None, None).run_tasks(
            StrategyKind::Atomic,
            &mut out,
            &|_, _| {},
        );
    }

    #[test]
    fn names_round_trip() {
        for kind in StrategyKind::all() {
            assert_eq!(StrategyKind::parse(kind.name()), Some(kind), "{kind}");
        }
        assert_eq!(StrategyKind::parse("nope"), None);
    }

    #[test]
    fn resource_predicates() {
        assert!(StrategyKind::Redundant.needs_full_list());
        assert!(!StrategyKind::Serial.needs_full_list());
        assert!(StrategyKind::Sdc { dims: 2 }.needs_plan());
        assert!(!StrategyKind::Critical.needs_plan());
        assert!(!StrategyKind::Atomic.is_deterministic());
        assert!(!StrategyKind::Critical.is_deterministic());
        assert!(!StrategyKind::Locks.is_deterministic());
        assert!(StrategyKind::Sdc { dims: 3 }.is_deterministic());
        assert!(StrategyKind::TaskGraph { dims: 2 }.needs_plan());
        assert!(StrategyKind::TaskGraph { dims: 2 }.is_deterministic());
        assert_eq!(StrategyKind::TaskGraph { dims: 3 }.plan_dims(), Some(3));
        assert_eq!(StrategyKind::Sdc { dims: 1 }.plan_dims(), Some(1));
        assert_eq!(StrategyKind::Locks.plan_dims(), None);
    }

    #[test]
    fn downgrade_chain_ends_at_serial() {
        // Sdc sheds one axis per step, then falls back to serial; every
        // link is deterministic.
        assert_eq!(
            StrategyKind::Sdc { dims: 3 }.downgrade(),
            Some(StrategyKind::Sdc { dims: 2 })
        );
        assert_eq!(
            StrategyKind::Sdc { dims: 2 }.downgrade(),
            Some(StrategyKind::Sdc { dims: 1 })
        );
        assert_eq!(
            StrategyKind::Sdc { dims: 1 }.downgrade(),
            Some(StrategyKind::Serial)
        );
        let mut kind = StrategyKind::TaskGraph { dims: 3 };
        while let Some(next) = kind.downgrade() {
            assert!(next.is_deterministic(), "{kind} -> {next}");
            kind = next;
        }
        assert_eq!(kind, StrategyKind::Serial);
        // TaskGraph falls back to barriered SDC at the same decomposition,
        // which then continues down the SDC chain.
        for dims in 1..=3 {
            assert_eq!(
                StrategyKind::TaskGraph { dims }.downgrade(),
                Some(StrategyKind::Sdc { dims })
            );
        }
        // Non-SDC strategies have no geometric precondition to relax.
        for kind in StrategyKind::all() {
            if !kind.needs_plan() {
                assert_eq!(kind.downgrade(), None, "{kind}");
            }
        }
    }

    #[test]
    fn downgrade_event_display_names_both_strategies() {
        let ev = DowngradeEvent {
            from: StrategyKind::Sdc { dims: 3 },
            to: StrategyKind::Sdc { dims: 2 },
            reason: "axis 0 too small".into(),
        };
        let msg = ev.to_string();
        assert!(msg.contains("sdc3d") && msg.contains("sdc2d") && msg.contains("axis 0"));
    }

    #[test]
    #[should_panic(expected = "requires a plan")]
    fn sdc_without_plan_panics() {
        let f = fixture();
        let ctx = ParallelContext::new(2);
        let exec = ScatterExec {
            ctx: &ctx,
            half: &f.half,
            full: None,
            plan: None,
            localwrite: None,
            metrics: None,
            sap: None,
            taskgraph: None,
        };
        let mut out = vec![0.0f64; f.pos.len()];
        exec.run(StrategyKind::Sdc { dims: 2 }, &mut out, &|_, _| {
            Some(PairTerm::symmetric(1.0))
        });
    }

    #[test]
    #[should_panic(expected = "requires a full list")]
    fn redundant_without_full_list_panics() {
        let f = fixture();
        let ctx = ParallelContext::new(2);
        let exec = ScatterExec {
            ctx: &ctx,
            half: &f.half,
            full: None,
            plan: None,
            localwrite: None,
            metrics: None,
            sap: None,
            taskgraph: None,
        };
        let mut out = vec![0.0f64; f.pos.len()];
        exec.run(StrategyKind::Redundant, &mut out, &|_, _| {
            Some(PairTerm::symmetric(1.0))
        });
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn wrong_output_length_panics() {
        let f = fixture();
        let ctx = ParallelContext::new(1);
        let exec = ScatterExec {
            ctx: &ctx,
            half: &f.half,
            full: None,
            plan: None,
            localwrite: None,
            metrics: None,
            sap: None,
            taskgraph: None,
        };
        let mut out = vec![0.0f64; 3];
        exec.run(StrategyKind::Serial, &mut out, &|_, _| {
            Some(PairTerm::symmetric(1.0))
        });
    }
}
