//! Dependency-graph scatter — the per-color barrier replaced by a task DAG.
//!
//! The SDC strategy (see [`crate::strategies::sdc`]) orders conflicting
//! subdomain tasks with *colors*: all tasks of color `k` run, a global
//! barrier, then color `k+1`. The barrier waits for the slowest task of each
//! color even when most of the box has long gone idle — the residual cost on
//! non-uniform densities that the per-color wall metrics expose.
//!
//! This module keeps SDC's order and drops its barrier. Two subdomain tasks
//! **conflict** exactly when their write footprints can share an atom: a
//! task writes its own atoms plus their list neighbors, all of which lie
//! inside the subdomain's AABB expanded by the interaction range
//! (`cutoff + skin`, the list radius). So tasks `a` and `b` conflict iff
//!
//! ```text
//! aabb(a).expanded(range)  intersects  aabb(b).expanded(range)   (periodic)
//! ```
//!
//! — the identical predicate `ColoredDecomposition::validate` uses to prove
//! the color scheme sound, so same-color tasks never conflict. Every
//! conflicting pair gets a dependency edge from the earlier task to the
//! later one in **color-major order**, `(color_of(s), s)`. Edges therefore
//! only climb colors: the graph is acyclic, and its longest chain is at most
//! the color count (2, 4 or 8), however many tasks there are. A task becomes
//! runnable the moment its conflicting tasks of earlier colors finish;
//! independent tasks never wait on each other at all. The only full join
//! left is one per sweep.
//!
//! **Determinism.** Each output element has at most one writer per color,
//! and every pair of tasks that write a common element is ordered by an
//! edge that follows the colors. So the additions into each element arrive
//! color by color under *any* worker interleaving, at *any* thread count —
//! exactly barriered SDC's order. Together with the fixed atom and
//! neighbor-row order inside each task, the graph's results are bitwise
//! equal to barriered SDC's on the same plan (DESIGN.md §14).
//!
//! Execution is [`md_base::pool::run_graph`] on the engine's pool: one
//! deque per worker, owners pop the front, thieves steal from the back,
//! completions decrement dependent counters and push newly-ready tasks onto
//! the completing worker's deque. Per-task ready-latency and steal counters
//! replace the per-color wall histograms in [`ScatterMetrics`].

use crate::metrics::ScatterMetrics;
use crate::plan::SdcPlan;
use crate::scatter::{ScatterValue, TaskRows};
use crate::ParallelContext;
use md_base::pool::{self, SharedSlice};
use md_geometry::SimBox;
use md_neighbor::Csr;
use std::time::Instant;

/// The conflict DAG over one plan's subdomain tasks (see module docs).
///
/// Edges run between every pair of tasks whose range-expanded AABBs
/// intersect under periodic boundary conditions, from the earlier task to
/// the later one in color-major order; stored as a dependents CSR plus
/// per-task indegrees.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    /// CSR offsets into `dependents`, one slot per task plus a tail.
    dep_offsets: Vec<u32>,
    /// For task `t`: the tasks of later colors whose pending count drops
    /// when `t` completes, ascending by id.
    dependents: Vec<u32>,
    /// Incoming-edge count per task (the initial pending count).
    indegree: Vec<u32>,
}

impl TaskGraph {
    /// Builds the conflict DAG for `decomp` inside `sim_box`.
    ///
    /// O(S²) in the subdomain count — S is small (the decomposition caps
    /// counts per axis) and the graph is rebuilt only when the plan is.
    pub fn build(decomp: &crate::decomposition::ColoredDecomposition, sim_box: &SimBox) -> TaskGraph {
        let n = decomp.subdomain_count();
        let range = decomp.range();
        let halos: Vec<_> = (0..n).map(|s| decomp.aabb(s).expanded(range)).collect();
        let before = |a: usize, b: usize| (decomp.color_of(a), a) < (decomp.color_of(b), b);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for (a, halo_a) in halos.iter().enumerate() {
            for (off, halo_b) in halos[a + 1..].iter().enumerate() {
                let b = a + 1 + off;
                if halo_a.intersects_periodic(halo_b, sim_box) {
                    let (from, to) = if before(a, b) { (a, b) } else { (b, a) };
                    edges.push((from as u32, to as u32));
                }
            }
        }
        // Sorted by source, then target: each task's dependents come out
        // contiguous and ascending.
        edges.sort_unstable();
        let mut dep_offsets = vec![0u32; n + 1];
        let mut indegree = vec![0u32; n];
        for &(from, to) in &edges {
            dep_offsets[from as usize + 1] += 1;
            indegree[to as usize] += 1;
        }
        for t in 0..n {
            dep_offsets[t + 1] += dep_offsets[t];
        }
        let dependents = edges.into_iter().map(|(_, to)| to).collect();
        TaskGraph { dep_offsets, dependents, indegree }
    }

    /// Number of tasks (subdomains).
    #[inline]
    pub fn task_count(&self) -> usize {
        self.indegree.len()
    }

    /// Number of conflict edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.dependents.len()
    }

    /// The tasks depending on `t` — its conflicting tasks of later colors —
    /// ascending by id.
    #[inline]
    pub fn dependents_of(&self, t: usize) -> &[u32] {
        let lo = self.dep_offsets[t] as usize;
        let hi = self.dep_offsets[t + 1] as usize;
        &self.dependents[lo..hi]
    }

    /// Incoming-edge counts per task.
    #[inline]
    pub fn indegree(&self) -> &[u32] {
        &self.indegree
    }

    /// True when the DAG orders `a` before `b` by a direct edge (`b` in
    /// `a`'s dependent list).
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.dependents_of(a).binary_search(&(b as u32)).is_ok()
    }

    /// Exhaustively verifies the safety contract against a real plan and
    /// half list: any two tasks *not* ordered by an edge must have disjoint
    /// write footprints (own atoms ∪ their list neighbors). Debug builds run
    /// this on every scatter; release builds skip it.
    pub fn validate_independence(&self, plan: &SdcPlan, half: &Csr) -> Result<(), String> {
        let n = self.task_count();
        if n != plan.decomposition().subdomain_count() {
            return Err(format!(
                "graph has {n} tasks but plan has {} subdomains",
                plan.decomposition().subdomain_count()
            ));
        }
        let atoms = half.rows();
        let words = atoms.div_ceil(64);
        let mut footprints: Vec<Vec<u64>> = Vec::with_capacity(n);
        for s in 0..n {
            let mut bits = vec![0u64; words];
            for &i in plan.atoms_of(s) {
                let i = i as usize;
                bits[i / 64] |= 1 << (i % 64);
                for &j in half.row(i) {
                    let j = j as usize;
                    bits[j / 64] |= 1 << (j % 64);
                }
            }
            footprints.push(bits);
        }
        for a in 0..n {
            for b in (a + 1)..n {
                if self.has_edge(a, b) || self.has_edge(b, a) {
                    continue;
                }
                let overlap = footprints[a]
                    .iter()
                    .zip(&footprints[b])
                    .any(|(&x, &y)| x & y != 0);
                if overlap {
                    return Err(format!(
                        "tasks {a} and {b} are unordered but their write footprints overlap"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The task-graph sweep as a row-owning sweep: `task` runs once per DAG
/// task `s` on [`TaskRows::Atoms`]`(plan.atoms_of(s))`, on `ctx`'s workers,
/// as soon as every conflicting task of an earlier color has finished. A
/// task may write `out` at its rows and their half-list neighbors (its write
/// footprint). Every element receives its additions in barriered SDC's
/// color order, so the result is bitwise equal to [`sweep_sdc`]'s on the
/// same plan.
///
/// Safety of those unsynchronized [`SharedSlice`] writes: unordered task
/// pairs have disjoint write footprints (debug builds verify this
/// exhaustively via [`TaskGraph::validate_independence`]); ordered pairs
/// never run concurrently, and the completion protocol's release/acquire
/// chain makes the earlier task's writes visible to the later one.
///
/// With metrics on, records per-task busy time (by worker index), task and
/// steal counts, and the ready→start latency histogram.
///
/// [`sweep_sdc`]: crate::strategies::sdc::sweep_sdc
pub fn sweep_taskgraph<V: ScatterValue>(
    ctx: &ParallelContext,
    graph: &TaskGraph,
    plan: &SdcPlan,
    half: &Csr,
    out: &mut [V],
    task: &(impl Fn(TaskRows<'_>, &SharedSlice<'_, V>) + Sync),
    metrics: Option<&ScatterMetrics>,
) {
    debug_assert!(
        graph.validate_independence(plan, half).is_ok(),
        "task graph out of sync with the plan: {:?}",
        graph.validate_independence(plan, half)
    );
    let shared = SharedSlice::new(out);
    let run = |s: u32, worker: usize, ready_ns: u64| {
        let start = metrics.map(|_| Instant::now());
        task(TaskRows::Atoms(plan.atoms_of(s as usize)), &shared);
        if let (Some(m), Some(start)) = (metrics, start) {
            m.ready_latency.record_ns(ready_ns);
            m.add_busy_ns(worker, start.elapsed().as_nanos() as u64);
            m.tasks.inc();
        }
    };
    let steals = ctx.install(|| pool::run_graph(&graph.indegree, |t| graph.dependents_of(t), run));
    if let Some(m) = metrics {
        m.steals.add(steals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::{ColoredDecomposition, DecompositionConfig};
    use crate::scatter::{pair_task, PairTerm};
    use md_geometry::LatticeSpec;
    use md_neighbor::{NeighborList, VerletConfig};
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Mutex;

    const CUTOFF: f64 = 5.67;
    const SKIN: f64 = 0.3;
    const RANGE: f64 = CUTOFF + SKIN;

    fn fixture(cells: usize, dims: usize) -> (md_geometry::SimBox, Vec<md_geometry::Vec3>, NeighborList, SdcPlan) {
        let (bx, pos) = LatticeSpec::bcc_fe(cells).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, SKIN));
        let plan = SdcPlan::build(&bx, &pos, DecompositionConfig::new(dims, RANGE)).unwrap();
        (bx, pos, nl, plan)
    }

    #[test]
    fn edges_match_the_validate_predicate_and_point_upward() {
        for dims in 1..=3 {
            let (bx, _, _, plan) = fixture(17, dims);
            let decomp = plan.decomposition();
            let graph = TaskGraph::build(decomp, &bx);
            let n = decomp.subdomain_count();
            assert_eq!(graph.task_count(), n);
            let rank = |s: usize| (decomp.color_of(s), s);
            let mut expect = 0usize;
            for a in 0..n {
                let ha = decomp.aabb(a).expanded(decomp.range());
                for b in (a + 1)..n {
                    let hb = decomp.aabb(b).expanded(decomp.range());
                    let conflict = ha.intersects_periodic(&hb, &bx);
                    // Upward means color-major: the earlier of the pair in
                    // (color, id) order is the edge's source.
                    let (lo, hi) = if rank(a) < rank(b) { (a, b) } else { (b, a) };
                    assert_eq!(graph.has_edge(lo, hi), conflict, "dims {dims}: edge ({lo},{hi})");
                    assert!(!graph.has_edge(hi, lo), "dims {dims}: edge {hi}→{lo} points down");
                    if conflict {
                        assert_ne!(rank(a).0, rank(b).0, "dims {dims}: same-color edge {a}, {b}");
                        expect += 1;
                    }
                }
            }
            assert_eq!(graph.edge_count(), expect, "dims {dims}");
            // Indegrees are consistent with the dependent lists.
            let mut indeg = vec![0u32; n];
            for a in 0..n {
                for &b in graph.dependents_of(a) {
                    indeg[b as usize] += 1;
                }
            }
            assert_eq!(indeg, graph.indegree(), "dims {dims}");
        }
    }

    #[test]
    fn independence_validates_against_real_footprints() {
        for dims in 1..=3 {
            let (bx, _, nl, plan) = fixture(17, dims);
            let graph = TaskGraph::build(plan.decomposition(), &bx);
            graph
                .validate_independence(&plan, nl.csr())
                .unwrap_or_else(|e| panic!("dims {dims}: {e}"));
        }
    }

    /// The DAG's longest path in tasks: a Kahn pass that puts every task
    /// one level past its deepest predecessor.
    fn depth(graph: &TaskGraph) -> usize {
        let mut pending = graph.indegree().to_vec();
        let mut level = vec![1usize; graph.task_count()];
        let mut ready: Vec<usize> = (0..pending.len()).filter(|&t| pending[t] == 0).collect();
        let mut depth = 0;
        while let Some(t) = ready.pop() {
            depth = depth.max(level[t]);
            for &d in graph.dependents_of(t) {
                let d = d as usize;
                level[d] = level[d].max(level[t] + 1);
                pending[d] -= 1;
                if pending[d] == 0 {
                    ready.push(d);
                }
            }
        }
        depth
    }

    #[test]
    fn longest_chain_is_the_color_count() {
        for cells in [17, 26, 32, 40] {
            let bx = LatticeSpec::bcc_fe(cells).sim_box();
            for dims in 1..=3 {
                let config = DecompositionConfig::new(dims, RANGE);
                let decomp = ColoredDecomposition::new(&bx, config).unwrap();
                let graph = TaskGraph::build(&decomp, &bx);
                assert_eq!(
                    depth(&graph),
                    decomp.color_count(),
                    "{cells} cells, dims {dims}: {} tasks",
                    graph.task_count()
                );
            }
        }
    }

    #[test]
    fn pool_runs_every_task_once_in_dependency_order() {
        let (bx, _, _, plan) = fixture(17, 3);
        let graph = TaskGraph::build(plan.decomposition(), &bx);
        let n = graph.task_count();
        for threads in [1usize, 2, 4, 7] {
            let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let finish_order = Mutex::new(Vec::new());
            ParallelContext::new(threads).install(|| {
                pool::run_graph(graph.indegree(), |t| graph.dependents_of(t), |t, w, _| {
                    assert!(w < threads);
                    runs[t as usize].fetch_add(1, Ordering::SeqCst);
                    finish_order.lock().unwrap().push(t);
                })
            });
            for (t, r) in runs.iter().enumerate() {
                assert_eq!(r.load(Ordering::SeqCst), 1, "t{threads}: task {t}");
            }
            // Every edge respected: the source finished before the sink.
            let order = finish_order.into_inner().unwrap();
            let mut position = vec![0usize; n];
            for (k, &t) in order.iter().enumerate() {
                position[t as usize] = k;
            }
            for a in 0..n {
                for &b in graph.dependents_of(a) {
                    assert!(
                        position[a] < position[b as usize],
                        "t{threads}: edge {a}→{b} violated"
                    );
                }
            }
        }
    }

    #[test]
    fn scatter_is_bitwise_equal_to_barriered_sdc_at_every_thread_count() {
        for dims in 1..=3 {
            let (bx, pos, nl, plan) = fixture(17, dims);
            let half = nl.csr();
            let kernel = |i: usize, j: usize| {
                let r2 = bx.distance_sq(pos[i], pos[j]);
                (r2 < CUTOFF * CUTOFF).then(|| PairTerm::symmetric(1.0 / (1.0 + r2)))
            };
            // SAFETY: `sweep_taskgraph` runs tasks with overlapping
            // footprints in edge order, never concurrently.
            let task = |rows: TaskRows<'_>, out: &SharedSlice<'_, f64>| unsafe {
                pair_task(half, rows, out, &kernel)
            };
            let mut barriered = vec![0.0f64; pos.len()];
            let serial_ctx = ParallelContext::new(1);
            crate::strategies::sdc::scatter_sdc(&serial_ctx, &plan, half, &mut barriered, &kernel);
            let graph = TaskGraph::build(plan.decomposition(), &bx);
            for threads in [1usize, 2, 4, 8] {
                let ctx = ParallelContext::new(threads);
                for _ in 0..2 {
                    let mut got = vec![0.0f64; pos.len()];
                    sweep_taskgraph(&ctx, &graph, &plan, half, &mut got, &task, None);
                    assert_eq!(barriered, got, "dims {dims} t{threads}: graph differs from SDC");
                }
            }
        }
    }

    #[test]
    fn metered_scatter_counts_every_task() {
        let (bx, pos, nl, plan) = fixture(17, 3);
        let graph = TaskGraph::build(plan.decomposition(), &bx);
        let metrics = ScatterMetrics::new(4);
        let mut out = vec![0.0f64; pos.len()];
        // SAFETY: as in `sweep_taskgraph`'s contract.
        let task = |rows: TaskRows<'_>, out: &SharedSlice<'_, f64>| unsafe {
            pair_task(nl.csr(), rows, out, &|_, _| Some(PairTerm::symmetric(1.0)))
        };
        let ctx = ParallelContext::new(4);
        sweep_taskgraph(&ctx, &graph, &plan, nl.csr(), &mut out, &task, Some(&metrics));
        let n = plan.decomposition().subdomain_count() as u64;
        assert_eq!(metrics.tasks.get(), n, "every task completion counted");
        assert_eq!(metrics.ready_latency.count(), n);
        assert_eq!(metrics.color_barriers.get(), 0, "no color barriers here");
        let busy: u64 = (0..metrics.threads()).map(|w| metrics.thread_busy_ns[w].get()).sum();
        assert!(busy > 0, "busy time attributed to pool workers");
    }
}
