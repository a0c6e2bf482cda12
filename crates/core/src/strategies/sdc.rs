//! Spatial Decomposition Coloring — the paper's contribution (§II.B–C).
//!
//! Execution mirrors the paper's Fig. 7/8 loop nest:
//!
//! ```text
//! for color in colors {               // serial over colors
//!     par for subdomain in of_color(color) {   // pool::for_each, no sync inside
//!         for i in atoms_of(subdomain) {
//!             for j in half_list(i) {
//!                 out[i] += to_i;  out[j] += to_j;   // unsynchronized!
//!             }
//!         }
//!     }                               // implicit barrier (the region joins)
//! }
//! ```
//!
//! The unsynchronized writes are sound because within one color the write
//! footprints — each subdomain's atoms plus their list neighbors — are
//! pairwise disjoint: same-color subdomains are separated by a full
//! subdomain of edge ≥ 2·(cutoff + skin) along some axis, and every list
//! neighbor lies within `cutoff + skin` of its owner. The invariant is
//! established once per neighbor-list rebuild and can be checked exhaustively
//! with [`SdcPlan::validate_footprints`]; debug builds re-verify it here on
//! every plan's first use.
//!
//! The only synchronization the strategy ever performs is the barrier at the
//! end of each color's parallel loop — `colors` barriers per sweep (2, 4 or
//! 8), amortized over the entire force computation. That is the whole reason
//! for the paper's near-linear speedup.

use crate::metrics::{ScatterMetrics, MAX_COLORS};
use crate::plan::SdcPlan;
use crate::scatter::{pair_task, PairTerm, ScatterValue, TaskRows};
use crate::ParallelContext;
use md_base::pool::{self, SharedSlice};
use md_neighbor::Csr;
use std::time::Instant;

/// Color-parallel scatter over a half list (see module docs).
pub fn scatter_sdc<V: ScatterValue>(
    ctx: &ParallelContext,
    plan: &SdcPlan,
    half: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize) -> Option<PairTerm<V>> + Sync),
) {
    scatter_sdc_metered(ctx, plan, half, out, kernel, None);
}

/// [`scatter_sdc`] with optional instrumentation (see [`sweep_sdc`]).
pub fn scatter_sdc_metered<V: ScatterValue>(
    ctx: &ParallelContext,
    plan: &SdcPlan,
    half: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize) -> Option<PairTerm<V>> + Sync),
    metrics: Option<&ScatterMetrics>,
) {
    // SAFETY: `sweep_sdc` hands `out` to tasks with disjoint footprints.
    let task = |rows: TaskRows<'_>, out: &SharedSlice<'_, V>| unsafe {
        pair_task(half, rows, out, kernel)
    };
    sweep_sdc(ctx, plan, half, out, &task, metrics);
}

/// The SDC sweep as a row-owning sweep: `task` runs once per subdomain `s`
/// on [`TaskRows::Atoms`]`(plan.atoms_of(s))`, color by color, with the
/// same-color subdomains in parallel and a barrier between colors. A task
/// may write `out` at its rows and their half-list neighbors (its write
/// footprint), which no concurrently running task shares.
///
/// With `metrics`, records per-color wall time (the span of each color's
/// parallel region, whose join is the barrier) and per-worker busy time
/// (attributed via [`pool::current_worker`], so a worker's barrier wait is
/// `Σ color walls − busy`). Timing is taken once per color and per task,
/// never inside the pair loop, keeping the metering overhead within the
/// ≤ 1% budget (DESIGN.md §10).
pub fn sweep_sdc<V: ScatterValue>(
    ctx: &ParallelContext,
    plan: &SdcPlan,
    half: &Csr,
    out: &mut [V],
    task: &(impl Fn(TaskRows<'_>, &SharedSlice<'_, V>) + Sync),
    metrics: Option<&ScatterMetrics>,
) {
    debug_assert!(
        plan.validate_footprints(half).is_ok(),
        "SDC plan footprints overlap; decomposition range too small for this list"
    );
    let decomp = plan.decomposition();
    let shared = SharedSlice::new(out);
    ctx.install(|| {
        for color in 0..decomp.color_count() {
            let color_start = metrics.map(|_| Instant::now());
            // Parallel over same-color subdomains; the region's join is the
            // paper's implicit barrier before the next color starts. The
            // iteration order is the plan's schedule (LPT when balancing is
            // on, CSR otherwise) — within a color any order is
            // result-identical, because each output element has exactly one
            // writer per color.
            let tasks = plan.ordered_of_color(color);
            pool::for_each(tasks.len(), |k| {
                let task_start = metrics.map(|_| Instant::now());
                // Subdomain s owns its atoms; their list neighbors lie in
                // its halo. Same-color footprints are disjoint (checked
                // above), so no other task touches them this color.
                task(TaskRows::Atoms(plan.atoms_of(tasks[k] as usize)), &shared);
                if let (Some(m), Some(start)) = (metrics, task_start) {
                    m.add_busy_ns(pool::current_worker(), start.elapsed().as_nanos() as u64);
                }
            });
            if let (Some(m), Some(start)) = (metrics, color_start) {
                m.color_wall[color.min(MAX_COLORS - 1)].record(start.elapsed());
                m.color_barriers.inc();
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomposition::DecompositionConfig;
    use md_geometry::{LatticeSpec, Vec3};
    use md_neighbor::{NeighborList, VerletConfig};

    const CUTOFF: f64 = 5.67;
    const SKIN: f64 = 0.3;

    #[test]
    fn matches_serial_for_each_dimensionality() {
        let (bx, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, SKIN));
        let kernel = |i: usize, j: usize| {
            let r2 = bx.distance_sq(pos[i], pos[j]);
            (r2 < CUTOFF * CUTOFF).then(|| PairTerm::symmetric(1.0 / (1.0 + r2)))
        };
        let mut expect = vec![0.0f64; pos.len()];
        crate::strategies::serial::scatter_serial(nl.csr(), &mut expect, &kernel);
        for dims in 1..=3 {
            let plan =
                SdcPlan::build(&bx, &pos, DecompositionConfig::new(dims, CUTOFF + SKIN)).unwrap();
            for threads in [1, 2, 5] {
                let ctx = ParallelContext::new(threads);
                let mut got = vec![0.0f64; pos.len()];
                scatter_sdc(&ctx, &plan, nl.csr(), &mut got, &kernel);
                for (k, (a, b)) in expect.iter().zip(&got).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "dims {dims} threads {threads}: atom {k}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn vec3_scatter_matches_serial() {
        let (bx, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, SKIN));
        let kernel = |i: usize, j: usize| {
            let d = bx.min_image(pos[i], pos[j]);
            let r2 = d.norm_sq();
            (r2 < CUTOFF * CUTOFF).then(|| PairTerm::newton(d / (1.0 + r2)))
        };
        let mut expect = vec![Vec3::ZERO; pos.len()];
        crate::strategies::serial::scatter_serial(nl.csr(), &mut expect, &kernel);
        let plan = SdcPlan::build(&bx, &pos, DecompositionConfig::new(3, CUTOFF + SKIN)).unwrap();
        let ctx = ParallelContext::new(4);
        let mut got = vec![Vec3::ZERO; pos.len()];
        scatter_sdc(&ctx, &plan, nl.csr(), &mut got, &kernel);
        for (a, b) in expect.iter().zip(&got) {
            assert!((*a - *b).norm() < 1e-12);
        }
    }

    #[test]
    fn lpt_schedule_is_bitwise_identical_to_csr_order() {
        // Reordering tasks within a color must not change a single bit:
        // every output element has exactly one writer per color, so the
        // floating-point accumulation order per element is unchanged.
        use crate::schedule::ColorSchedule;
        let (bx, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, SKIN));
        let kernel = |i: usize, j: usize| {
            let r2 = bx.distance_sq(pos[i], pos[j]);
            (r2 < CUTOFF * CUTOFF).then(|| PairTerm::symmetric(1.0 / (1.0 + r2)))
        };
        for dims in 1..=3 {
            let plan =
                SdcPlan::build(&bx, &pos, DecompositionConfig::new(dims, CUTOFF + SKIN)).unwrap();
            let costs: Vec<f64> =
                plan.pair_counts(nl.csr()).iter().map(|&c| c as f64).collect();
            let mut scheduled = plan.clone();
            scheduled.set_schedule(ColorSchedule::lpt(plan.decomposition(), &costs, 4));
            for threads in [1, 4] {
                let ctx = ParallelContext::new(threads);
                let mut plain = vec![0.0f64; pos.len()];
                let mut lpt = vec![0.0f64; pos.len()];
                scatter_sdc(&ctx, &plan, nl.csr(), &mut plain, &kernel);
                scatter_sdc(&ctx, &scheduled, nl.csr(), &mut lpt, &kernel);
                assert_eq!(plain, lpt, "dims {dims} threads {threads}: LPT changed a bit");
            }
        }
    }

    #[test]
    fn every_pair_processed_exactly_once() {
        // Unit contributions: out[i] must equal the degree of i in the
        // full adjacency — each stored pair touched once, no duplicates.
        let (bx, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, 0.0));
        let plan = SdcPlan::build(&bx, &pos, DecompositionConfig::new(2, CUTOFF)).unwrap();
        let ctx = ParallelContext::new(4);
        let mut got = vec![0.0f64; pos.len()];
        scatter_sdc(&ctx, &plan, nl.csr(), &mut got, &|_, _| {
            Some(PairTerm::symmetric(1.0))
        });
        let full = nl.to_full();
        #[allow(clippy::needless_range_loop)]
        for i in 0..pos.len() {
            assert_eq!(got[i], full.neighbors(i).len() as f64, "atom {i}");
        }
    }
}
