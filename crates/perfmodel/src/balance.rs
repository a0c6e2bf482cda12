//! Makespan model for cost-guided SDC schedules, and its validation against
//! observed color walls.
//!
//! `sdc-core::schedule` does the combinatorics (LPT packing, plan search)
//! against an abstract [`MakespanParams`]; this module supplies those
//! parameters from the calibrated [`MachineParams`] — per-pair task cost
//! scaled by the bandwidth overhead `(1 + μ·ln P)`, the fork-join barrier at
//! `P` threads, and the paper's two timed sweeps per step — and closes the
//! loop on the *measured* side: [`ObservedMakespan`] extracts the busiest
//! color's real wall time from a metrics report so a predicted makespan
//! reduction can be confirmed (or refuted) by the observability layer.

use crate::machine::MachineParams;
use sdc_core::schedule::{ColorSchedule, MakespanParams};

/// The schedule-model cost constants at `threads` workers, derived from the
/// machine model: `task_unit = pair_cost · overhead(P)`,
/// `barrier = barrier(P)`, `sweeps` as configured (2 for EAM).
pub fn makespan_params(machine: &MachineParams, threads: usize) -> MakespanParams {
    let threads = threads.max(1);
    MakespanParams {
        task_unit_seconds: machine.pair_cost * machine.overhead(threads),
        barrier_seconds: machine.barrier(threads),
        sweeps: machine.sweeps as f64,
    }
}

/// Predicted wall seconds per step for an LPT schedule under the machine
/// model — `sweeps · Σ_colors (max-thread-bin · task + barrier)`.
pub fn predicted_schedule_seconds(
    machine: &MachineParams,
    schedule: &ColorSchedule,
    threads: usize,
) -> f64 {
    schedule.predicted_seconds(&makespan_params(machine, threads))
}

/// Measured per-color wall times of a run — the observed counterpart of the
/// schedule model's `Σ_colors max-thread-bin` term. Built from the
/// `ScatterMetrics` color-wall histograms (their per-color sums).
#[derive(Debug, Clone, PartialEq)]
pub struct ObservedMakespan {
    /// Total wall nanoseconds per color across the whole run.
    pub color_wall_ns: Vec<u64>,
    /// Scatter sweeps executed (barriers ÷ colors).
    pub sweeps: u64,
}

impl ObservedMakespan {
    /// Builds from per-color wall sums and the executed sweep count.
    pub fn new(color_wall_ns: Vec<u64>, sweeps: u64) -> ObservedMakespan {
        ObservedMakespan { color_wall_ns, sweeps }
    }

    /// The busiest color's mean wall seconds per sweep — what every barrier
    /// in that color actually waited for.
    pub fn busiest_color_seconds(&self) -> f64 {
        if self.sweeps == 0 {
            return 0.0;
        }
        let max = self.color_wall_ns.iter().copied().max().unwrap_or(0);
        max as f64 * 1e-9 / self.sweeps as f64
    }

    /// Mean wall seconds of one full sweep (all colors, serial over colors).
    pub fn sweep_seconds(&self) -> f64 {
        if self.sweeps == 0 {
            return 0.0;
        }
        let total: u64 = self.color_wall_ns.iter().sum();
        total as f64 * 1e-9 / self.sweeps as f64
    }

    /// Observed-over-predicted sweep makespan under `params` (the
    /// validation ratio: near 1 means the model describes this host;
    /// 0 when nothing was measured).
    pub fn model_ratio(&self, schedule: &ColorSchedule, params: &MakespanParams) -> f64 {
        let predicted = schedule.predicted_seconds(params);
        if predicted <= 0.0 {
            return f64::INFINITY;
        }
        // predicted_seconds covers `sweeps` model sweeps per step; compare
        // per-sweep to stay independent of step count.
        let predicted_per_sweep = predicted / params.sweeps.max(1.0);
        self.sweep_seconds() / predicted_per_sweep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_geometry::LatticeSpec;
    use md_neighbor::{NeighborList, VerletConfig};
    use sdc_core::{DecompositionConfig, SdcPlan};

    const CUTOFF: f64 = 5.67;
    const SKIN: f64 = 0.3;

    fn schedule(threads: usize) -> ColorSchedule {
        let (bx, pos) = LatticeSpec::bcc_fe(17).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(CUTOFF, SKIN));
        let plan = SdcPlan::build(&bx, &pos, DecompositionConfig::new(2, CUTOFF + SKIN)).unwrap();
        let costs: Vec<f64> = plan.pair_counts(nl.csr()).iter().map(|&c| c as f64).collect();
        ColorSchedule::lpt(plan.decomposition(), &costs, threads)
    }

    #[test]
    fn params_come_from_the_machine_model() {
        let m = MachineParams::default();
        let p = makespan_params(&m, 4);
        assert_eq!(p.task_unit_seconds, m.pair_cost * m.overhead(4));
        assert_eq!(p.barrier_seconds, m.barrier(4));
        assert_eq!(p.sweeps, 2.0);
        // Single thread: no bandwidth overhead on the task unit.
        assert_eq!(makespan_params(&m, 1).task_unit_seconds, m.pair_cost);
    }

    #[test]
    fn prediction_scales_with_pair_cost_and_shrinks_with_threads() {
        let s1 = schedule(1);
        let s4 = schedule(4);
        let m = MachineParams::default();
        let t1 = predicted_schedule_seconds(&m, &s1, 1);
        let t4 = predicted_schedule_seconds(&m, &s4, 4);
        assert!(t4 < t1, "4 threads predicted slower than 1: {t4} vs {t1}");
        let expensive = MachineParams::calibrated(m.pair_cost * 10.0);
        assert!(predicted_schedule_seconds(&expensive, &s4, 4) > t4);
    }

    #[test]
    fn observed_makespan_per_sweep_accounting() {
        // Two colors, 4 sweeps: busiest color accumulated 8 ms.
        let o = ObservedMakespan::new(vec![8_000_000, 4_000_000], 4);
        assert!((o.busiest_color_seconds() - 2e-3).abs() < 1e-15);
        assert!((o.sweep_seconds() - 3e-3).abs() < 1e-15);
        let empty = ObservedMakespan::new(vec![], 0);
        assert_eq!(empty.busiest_color_seconds(), 0.0);
        assert_eq!(empty.sweep_seconds(), 0.0);
    }

    #[test]
    fn model_ratio_is_one_when_observation_matches_prediction() {
        let s = schedule(2);
        let params = makespan_params(&MachineParams::default(), 2);
        let per_sweep = s.predicted_seconds(&params) / params.sweeps;
        // Fabricate an observation that matches the prediction exactly:
        // all wall time in one color, `sweeps = 10`.
        let o = ObservedMakespan::new(vec![(per_sweep * 10.0 * 1e9) as u64], 10);
        let ratio = o.model_ratio(&s, &params);
        assert!((ratio - 1.0).abs() < 1e-6, "ratio = {ratio}");
    }
}
