//! Machine cost parameters.

/// Cost constants of the modeled shared-memory machine.
///
/// Times are seconds. Defaults are order-of-magnitude values for a mid-2000s
/// multi-socket Xeon (the paper's E7320 era), chosen so the modeled curves
/// reproduce the paper's *shapes*; `pair_cost` should be overridden with the
/// host-calibrated value (the bench harness measures it from the real serial
/// engine) when absolute times matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Serial cost of one stored half-pair in one sweep (density or force),
    /// the scale every strategy's work term is built on. The default is an
    /// era-typical per-pair constant (the paper's reproduced curves rest
    /// on it); hosts override it with a measured value through
    /// [`MachineParams::calibrated`].
    pub pair_cost: f64,
    /// Serial cost of one stored half-pair at full AVX2 lane occupancy:
    /// the φ/f spline lookups of the density sweep's row kernel run four
    /// pairs per block, batched across row boundaries. Real cost is
    /// `simd_pair_cost / occupancy` — partially filled tail blocks pay for
    /// their idle lanes — which is the [`MachineParams::simd`] view's
    /// lane-efficiency term. Default is `pair_cost · 0.8 / 1.2`: the
    /// measured single-thread gains of the §II.D kernel (1.25×) and of the
    /// AVX2 splines on top of it (1.2×) on the tabulated iron case
    /// (EXPERIMENTS.md §II.D-fused, §simd).
    pub simd_pair_cost: f64,
    /// Shared-bandwidth degradation μ: work cost scales by `1 + μ·ln P`.
    pub mem_contention: f64,
    /// Fixed cost of one fork-join barrier.
    pub barrier_base: f64,
    /// Additional barrier cost per `log2 P` (tree reduction).
    pub barrier_log: f64,
    /// Serialized cost of one lock-protected update (CS strategy).
    pub lock_cost: f64,
    /// Lock handoff degradation λ: lock cost scales by `1 + λ(P−1)`.
    pub lock_contention: f64,
    /// Cost of one CAS-loop atomic update.
    pub atomic_cost: f64,
    /// Atomic retry degradation (scales like the lock term, much weaker).
    pub atomic_contention: f64,
    /// SAP: merge cost per array element per thread copy (serialized).
    pub merge_cost: f64,
    /// SAP: private-array zeroing cost per element.
    pub zero_cost: f64,
    /// SAP: extra cache-pressure slope σ (`1 + σ(P−1)` on the compute part).
    pub sap_cache: f64,
    /// SDC: cache-locality penalty slope for subdomain halo traffic. A task
    /// touching subdomain `S` streams `S` plus its `r_c` halo; the larger
    /// the halo-to-subdomain volume ratio, the worse the reuse. Cost scales
    /// by `1 + halo_kappa·(halo_ratio − 1)` — this is the paper's §IV
    /// argument for why compact 2-D subdomains beat both 1-D slabs (fewer
    /// but no worse) and fine 3-D cells (more fork-join, more halo).
    pub halo_kappa: f64,
    /// SDC: fraction of the final partial round that fails to overlap with
    /// earlier rounds (1.0 = hard `ceil` makespan, 0.0 = perfectly fluid
    /// work-stealing). OpenMP static scheduling with equal tasks sits in
    /// between.
    pub round_overlap: f64,
    /// LOCALWRITE: boundary-pair fraction of an index-chunked partitioning
    /// (the class-3 redundant work; the inspector itself is amortized over
    /// list rebuilds like the SDC plan).
    pub lw_boundary_frac: f64,
    /// RC: work multiplier versus the half-list sweep (the paper: "there is
    /// two-fold computation work for the force calculations in RC method").
    pub rc_work: f64,
    /// Timed sweeps per step (density + force = 2, the paper's §III.A).
    pub sweeps: usize,
    /// Cores per socket of the modeled machine (the paper's E7320 box is
    /// 4 sockets × 4 cores).
    pub cores_per_socket: usize,
    /// NUMA remote-access penalty (paper §V names "a detailed study of SDC
    /// on NUMA memory architecture" as future work; this parameter models
    /// it): once threads span multiple sockets, a fraction
    /// `(sockets_used − 1)/sockets_used` of memory traffic is remote and
    /// costs `(1 + numa_penalty)` per access. 0 disables NUMA modeling
    /// (the paper's implicit flat-memory assumption).
    pub numa_penalty: f64,
    /// Neighbor rebuild: per-atom cell-binning cost (one coordinate → cell
    /// map plus a counting-sort pass).
    pub bin_cost: f64,
    /// Neighbor rebuild: cost of *examining* one candidate pair in the
    /// stencil walk (distance check; cheaper than `pair_cost`, which also
    /// evaluates the potential kernel).
    pub pair_gen_cost: f64,
    /// Neighbor rebuild: candidate pairs examined per stored half-pair. For
    /// a 27-cell stencil with `cell ≈ r_c` this is the ratio of the stencil
    /// volume to the cutoff-sphere volume, ≈ 27/(4π/3) ≈ 6.4.
    pub candidate_ratio: f64,
    /// Steps between list rebuilds (skin-triggered; ≈ 10 for the paper's
    /// 0.3 Å skin at melt temperatures).
    pub rebuild_every: f64,
    /// Fork-join barriers per parallel rebuild (bin, scatter, pair
    /// generation).
    pub rebuild_barriers: f64,
}

impl Default for MachineParams {
    fn default() -> MachineParams {
        MachineParams {
            pair_cost: 60e-9,
            simd_pair_cost: 40e-9,
            mem_contention: 0.05,
            barrier_base: 4e-6,
            barrier_log: 1.5e-6,
            lock_cost: 30e-9,
            lock_contention: 0.12,
            atomic_cost: 12e-9,
            atomic_contention: 0.02,
            merge_cost: 20e-9,
            zero_cost: 1e-9,
            sap_cache: 0.05,
            halo_kappa: 0.02,
            round_overlap: 0.5,
            lw_boundary_frac: 0.25,
            rc_work: 2.0,
            sweeps: 2,
            cores_per_socket: 4,
            numa_penalty: 0.0,
            bin_cost: 5e-9,
            pair_gen_cost: 25e-9,
            candidate_ratio: 6.4,
            rebuild_every: 10.0,
            rebuild_barriers: 3.0,
        }
    }
}

impl MachineParams {
    /// Default constants with a host-calibrated per-pair cost.
    pub fn calibrated(pair_cost: f64) -> MachineParams {
        assert!(
            pair_cost > 0.0 && pair_cost.is_finite(),
            "pair cost must be positive, got {pair_cost}"
        );
        MachineParams {
            pair_cost,
            // Keep the defaults' measured SIMD/per-pair ratio.
            simd_pair_cost: pair_cost * 0.8 / 1.2,
            ..MachineParams::default()
        }
    }

    /// Constants for predicting the AVX2 row kernel at the given lane
    /// occupancy (`ForceEngine::lane_occupancy` from `md-sim`, in
    /// `(0, 1]`): the per-pair cost becomes `simd_pair_cost / occupancy` —
    /// idle lanes in a task's tail block still occupy the vector units —
    /// and every synchronization, bandwidth, and rebuild constant is
    /// unchanged (the kernel keeps the same strategy-routed scatter).
    ///
    /// # Panics
    /// Panics unless `0 < occupancy ≤ 1`.
    pub fn simd(mut self, occupancy: f64) -> MachineParams {
        assert!(
            occupancy > 0.0 && occupancy <= 1.0,
            "lane occupancy must be in (0, 1], got {occupancy}"
        );
        self.pair_cost = self.simd_pair_cost / occupancy;
        self
    }

    /// The work-scaling overhead `(1 + μ·ln P) · numa(P)`.
    #[inline]
    pub fn overhead(&self, threads: usize) -> f64 {
        (1.0 + self.mem_contention * (threads as f64).ln()) * self.numa_factor(threads)
    }

    /// NUMA remote-traffic multiplier at `P` threads (1.0 when NUMA
    /// modeling is off or all threads fit one socket).
    #[inline]
    pub fn numa_factor(&self, threads: usize) -> f64 {
        if self.numa_penalty <= 0.0 {
            return 1.0;
        }
        let sockets_used = threads.div_ceil(self.cores_per_socket.max(1));
        if sockets_used <= 1 {
            1.0
        } else {
            let remote = (sockets_used - 1) as f64 / sockets_used as f64;
            1.0 + self.numa_penalty * remote
        }
    }

    /// Barrier cost at `P` threads.
    #[inline]
    pub fn barrier(&self, threads: usize) -> f64 {
        self.barrier_base + self.barrier_log * (threads as f64).log2().max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_one_for_single_thread() {
        let m = MachineParams::default();
        assert_eq!(m.overhead(1), 1.0);
        assert!(m.overhead(16) > m.overhead(2));
    }

    #[test]
    fn barrier_grows_with_threads() {
        let m = MachineParams::default();
        assert!(m.barrier(16) > m.barrier(2));
        assert!(m.barrier(1) >= m.barrier_base);
    }

    #[test]
    fn numa_factor_kicks_in_past_one_socket() {
        let mut m = MachineParams::default();
        assert_eq!(m.numa_factor(16), 1.0, "off by default");
        m.numa_penalty = 0.4;
        assert_eq!(m.numa_factor(4), 1.0, "one socket: all local");
        let two = m.numa_factor(8); // 2 sockets → half remote
        assert!((two - 1.2).abs() < 1e-12, "{two}");
        let four = m.numa_factor(16); // 4 sockets → 3/4 remote
        assert!((four - 1.3).abs() < 1e-12, "{four}");
        assert!(m.overhead(16) > MachineParams::default().overhead(16));
    }

    #[test]
    fn calibration_overrides_pair_cost_only() {
        let m = MachineParams::calibrated(123e-9);
        assert_eq!(m.pair_cost, 123e-9);
        assert_eq!(m.lock_cost, MachineParams::default().lock_cost);
    }

    #[test]
    fn simd_view_scales_with_lane_occupancy() {
        let m = MachineParams::default();
        let full = m.simd(1.0);
        assert_eq!(full.pair_cost, m.simd_pair_cost);
        assert!(
            full.pair_cost < m.pair_cost,
            "full lanes must beat the per-pair cost"
        );
        assert_eq!(full.barrier_base, m.barrier_base, "sync costs unchanged");
        // Half-empty lanes double the effective per-pair cost, which can
        // then exceed the per-pair one.
        let half = m.simd(0.5);
        assert!((half.pair_cost - 2.0 * m.simd_pair_cost).abs() < 1e-18);
        assert!(half.pair_cost > m.pair_cost);
        // Calibration preserves the defaults' SIMD/per-pair ratio.
        let c = MachineParams::calibrated(100e-9);
        assert!((c.simd_pair_cost / c.pair_cost - 0.8 / 1.2).abs() < 1e-12);
        assert!((m.simd_pair_cost / m.pair_cost - 0.8 / 1.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "occupancy")]
    fn out_of_range_occupancy_rejected() {
        let _ = MachineParams::default().simd(0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn non_positive_pair_cost_rejected() {
        let _ = MachineParams::calibrated(0.0);
    }
}
