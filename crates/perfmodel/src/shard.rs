//! Inter-shard halo-exchange cost: extends the per-step model with the
//! `md-shard` decomposition's overheads.
//!
//! A sharded run (`mdrun --shards S`) splits the box into S slabs along one
//! axis. Each shard sweeps its owned atoms **plus** a ghost halo of width
//! `r_c + skin` imported from the neighboring slabs, so the compute side
//! carries redundant work proportional to the ghost fraction; on top of
//! that every step pays the wire protocol (position + embedding-derivative
//! exchanges over the peer mesh), and every neighbor-list rebuild pays a
//! **repartition**: atom migration across slab boundaries plus re-selection
//! of the ghost export sets. This module prices all three terms:
//!
//! ```text
//! t_shard(S, P) = t_sweep(P)·(1/S + g(S))          redundant halo compute
//!               + t_rebuild(P)·(1/S + g(S))/every  amortized local rebuild
//!               + exchange(S)                      per-step wire traffic
//!               + repartition(S)/every             amortized migration
//! ```
//!
//! with `g(S)` the ghost fraction of [`ghost_fraction`]. Since the peer
//! mesh (PR 9) the exchange term is **per shard**: every shard ships its
//! own halo to its neighbors concurrently, so the wire cost on the
//! critical path is `N·g(S)` records, not the star relay's serial
//! `S·N·g(S)` funnel. With `g(S)` pinned at `2(r_c+skin)/L` for any slab
//! wider than the interaction range, the exchange term is *constant* in S
//! and the predicted curve no longer saturates as slabs thin out — the
//! remaining sub-linearity is the redundant ghost compute, which is the
//! shape Beazley & Lomdahl's neighbor-exchange machines show. The model
//! prices the binary wire codec ([`ShardLinkParams::binary`]) and
//! calibrates against the report's `shards.wire_seconds` (wire only —
//! compute wait is tallied separately).

use crate::case::CaseGeometry;
use crate::machine::MachineParams;
use crate::model::predict_seconds;
use crate::rebuild::{predict_step_with_rebuild, rebuild_seconds};
use sdc_core::StrategyKind;

/// Wire and migration constants of the shard protocol (peer-mesh halo
/// frames over Unix-domain sockets, driver control rounds around them).
/// Order of magnitude from timing the codec round trip on the host; the
/// *shape* of the model, not the absolute numbers, carries the claims.
#[derive(Debug, Clone)]
pub struct ShardLinkParams {
    /// Seconds to ship one ghost atom's position one way over a peer link
    /// (encode + ship + decode of three f64s plus framing share).
    pub ghost_cost: f64,
    /// Seconds to ship one ghost atom's embedding derivative (one f64).
    pub fp_cost: f64,
    /// Fixed seconds per driver control round trip (syscall + scheduling).
    pub round_latency: f64,
    /// Control round trips of a plain step (begin, halo-send, density,
    /// force).
    pub rounds_plain: f64,
    /// Control round trips of a rebuild step (+ migrate).
    pub rounds_rebuild: f64,
    /// Seconds to migrate one atom to a new owner (full state on the wire
    /// plus the merge-sort back into gid order).
    pub migrate_cost: f64,
    /// Seconds per local atom per rank to re-select the ghost export sets
    /// after a repartition (the slab-distance scan).
    pub select_cost: f64,
    /// Fraction of the skin an atom typically drifts between rebuilds,
    /// which sets how many boundary atoms change owner (`skin/2` triggers
    /// the rebuild; the average mover has covered about half of that).
    pub drift_frac: f64,
}

impl ShardLinkParams {
    /// Constants for the binary codec: raw little-endian bit patterns, 8
    /// bytes per f64 and no text parse.
    pub fn binary() -> ShardLinkParams {
        ShardLinkParams {
            ghost_cost: 3.0e-7,
            fp_cost: 1.0e-7,
            round_latency: 5.0e-5,
            rounds_plain: 4.0,
            rounds_rebuild: 5.0,
            migrate_cost: 2.0e-6,
            select_cost: 1.0e-8,
            drift_frac: 0.5,
        }
    }
}

/// The ghost fraction `g(S)`: ghosts a shard imports, as a fraction of the
/// total atom count. A slab of width `W = L/S` imports two slices of
/// thickness `r_c + skin` — capped at the rest of the box once the slabs
/// are thinner than the interaction range (`min-image uniqueness keeps one
/// copy per atom, so the import can never exceed `L − W`).
pub fn ghost_fraction(case: &CaseGeometry, skin: f64, shards: usize) -> f64 {
    assert!(shards >= 1, "shard count must be ≥ 1");
    if shards == 1 {
        return 0.0;
    }
    let l = case.box_lengths().x;
    let width = l / shards as f64;
    let reach = case.range() + skin;
    (2.0 * reach).min(l - width) / l
}

/// Per-step wire cost of the halo protocol. The peer mesh ships every
/// shard's halo **concurrently** (each shard streams to its neighbors
/// while they stream back), so the critical-path traffic is one shard's
/// import, `N·g(S)` records — the star relay's serial `S·N·g(S)` funnel
/// is gone, and with `g(S)` constant for slabs wider than the interaction
/// range this term no longer grows with S at all.
pub fn exchange_seconds(
    p: &ShardLinkParams,
    case: &CaseGeometry,
    skin: f64,
    shards: usize,
) -> f64 {
    if shards == 1 {
        // One shard still runs the protocol, but ships no ghosts.
        return p.round_latency * p.rounds_plain;
    }
    let per_shard_ghosts = case.n_atoms as f64 * ghost_fraction(case, skin, shards);
    p.round_latency * p.rounds_plain + per_shard_ghosts * (p.ghost_cost + p.fp_cost)
}

/// Cost of one repartition round for one shard (not yet amortized): the
/// extra protocol legs, the boundary atoms that change owner, and the
/// export re-selection scan over the local (owned + ghost) atoms.
pub fn repartition_seconds(
    p: &ShardLinkParams,
    case: &CaseGeometry,
    skin: f64,
    shards: usize,
) -> f64 {
    if shards == 1 {
        return p.round_latency * (p.rounds_rebuild - p.rounds_plain);
    }
    let n = case.n_atoms as f64;
    let l = case.box_lengths().x;
    // Atoms within one drift distance of any of the S slab boundaries.
    let drift = skin * 0.5 * p.drift_frac;
    let movers = n * (2.0 * drift * shards as f64 / l).min(1.0) / 2.0;
    let local = n * (1.0 / shards as f64 + ghost_fraction(case, skin, shards));
    p.round_latency * (p.rounds_rebuild - p.rounds_plain)
        + movers / shards as f64 * p.migrate_cost
        + local * shards as f64 * p.select_cost
}

/// Predicted seconds per time-step of an S-shard run, each shard sweeping
/// on `threads` workers. Uniform density makes every shard the critical
/// path, so the per-shard time *is* the step time. `None` exactly when the
/// base strategy model is infeasible (blank Table-1 cells). `mdrun` runs
/// with the builder's default 0.3 Å skin ([`DEFAULT_SKIN`]).
pub fn predict_shard_step(
    m: &MachineParams,
    p: &ShardLinkParams,
    case: &CaseGeometry,
    kind: StrategyKind,
    threads: usize,
    shards: usize,
    skin: f64,
) -> Option<f64> {
    let sweep = predict_seconds(m, case, kind, threads)?;
    let local = 1.0 / shards as f64 + ghost_fraction(case, skin, shards);
    let every = m.rebuild_every.max(1.0);
    let rebuild = rebuild_seconds(m, case, true, threads) * local / every;
    Some(
        sweep * local
            + rebuild
            + exchange_seconds(p, case, skin, shards)
            + repartition_seconds(p, case, skin, shards) / every,
    )
}

/// Speedup of the S-shard run versus the same strategy/threads unsharded
/// (rebuild amortized on both sides) — the scaling curve EXPERIMENTS.md
/// measures with `mdrun --shards --shard-backend process`.
pub fn shard_speedup(
    m: &MachineParams,
    p: &ShardLinkParams,
    case: &CaseGeometry,
    kind: StrategyKind,
    threads: usize,
    shards: usize,
    skin: f64,
) -> Option<f64> {
    let unsharded = predict_step_with_rebuild(m, case, kind, threads, true)?;
    predict_shard_step(m, p, case, kind, threads, shards, skin).map(|t| unsharded / t)
}

/// The Verlet skin every `mdrun` shard run uses (the builder default).
pub const DEFAULT_SKIN: f64 = 0.3;

#[cfg(test)]
mod tests {
    use super::*;

    const SDC2: StrategyKind = StrategyKind::Sdc { dims: 2 };

    fn m() -> MachineParams {
        MachineParams::default()
    }

    fn p() -> ShardLinkParams {
        ShardLinkParams::binary()
    }

    #[test]
    fn ghost_fraction_grows_then_saturates() {
        let case = CaseGeometry::paper_case(3);
        assert_eq!(ghost_fraction(&case, 0.3, 1), 0.0);
        let g2 = ghost_fraction(&case, 0.3, 2);
        let g4 = ghost_fraction(&case, 0.3, 4);
        assert!(g2 > 0.0 && g4 >= g2, "g2 {g2}, g4 {g4}");
        // Thin slabs: the import caps at the rest of the box, never the
        // whole of it.
        let g64 = ghost_fraction(&case, 0.3, 64);
        assert!(g64 < 1.0);
        let l = case.box_lengths().x;
        assert!((g64 - (l - l / 64.0) / l).abs() < 1e-12 || g64 < (l - l / 64.0) / l + 1e-12);
    }

    #[test]
    fn peer_exchange_no_longer_saturates_at_thin_slabs() {
        // Star relay serialized S·N·g(S) through the driver and capped the
        // curve by 64 slabs; the peer mesh ships halos concurrently, so
        // more slabs keep paying off (sub-linearly — the redundant ghost
        // compute is still real).
        let case = CaseGeometry::paper_case(4);
        let s2 = shard_speedup(&m(), &p(), &case, SDC2, 4, 2, DEFAULT_SKIN).unwrap();
        let s4 = shard_speedup(&m(), &p(), &case, SDC2, 4, 4, DEFAULT_SKIN).unwrap();
        let s64 = shard_speedup(&m(), &p(), &case, SDC2, 4, 64, DEFAULT_SKIN).unwrap();
        assert!(s2 > 1.3, "2 shards: {s2}");
        assert!(s4 > s2, "4 shards {s4} vs 2 shards {s2}");
        assert!(s64 > s4, "64 shards {s64} must beat 4 shards {s4}");
        // Redundant ghost work keeps sharding strictly below linear.
        assert!(s2 < 2.0 && s4 < 4.0 && s64 < 64.0);
    }

    #[test]
    fn exchange_term_is_per_shard_not_total() {
        // Between 4 and 64 slabs g(S) is pinned at 2·reach/L, so the
        // peer-mesh exchange term must not grow with S (the old model's
        // S· multiplier made it 16× larger here).
        let case = CaseGeometry::paper_case(4);
        let e4 = exchange_seconds(&p(), &case, DEFAULT_SKIN, 4);
        let e64 = exchange_seconds(&p(), &case, DEFAULT_SKIN, 64);
        assert!(
            (e64 - e4).abs() < 1e-12,
            "exchange grew with S: {e4} -> {e64}"
        );
    }

    #[test]
    fn one_shard_costs_only_the_protocol_floor() {
        let case = CaseGeometry::paper_case(2);
        let base = predict_step_with_rebuild(&m(), &case, SDC2, 4, true).unwrap();
        let one = predict_shard_step(&m(), &p(), &case, SDC2, 4, 1, DEFAULT_SKIN).unwrap();
        let floor = p().round_latency * p().rounds_plain;
        assert!(one >= base, "sharding cannot be free");
        assert!(one <= base + floor + repartition_seconds(&p(), &case, 0.3, 1) + 1e-12);
    }

    #[test]
    fn repartition_amortizes_with_the_rebuild_interval() {
        let case = CaseGeometry::paper_case(3);
        let mut rare = m();
        rare.rebuild_every = 100.0;
        let often = predict_shard_step(&m(), &p(), &case, SDC2, 4, 4, DEFAULT_SKIN).unwrap();
        let seldom = predict_shard_step(&rare, &p(), &case, SDC2, 4, 4, DEFAULT_SKIN).unwrap();
        assert!(seldom < often);
        // Migration work is real whenever there is more than one shard.
        assert!(
            repartition_seconds(&p(), &case, 0.3, 4)
                > repartition_seconds(&p(), &case, 0.3, 1)
        );
    }

    #[test]
    fn infeasible_base_cells_stay_blank() {
        let small = CaseGeometry::paper_case(1);
        let one_d = StrategyKind::Sdc { dims: 1 };
        assert!(predict_shard_step(&m(), &p(), &small, one_d, 16, 4, DEFAULT_SKIN).is_none());
        assert!(shard_speedup(&m(), &p(), &small, one_d, 16, 4, DEFAULT_SKIN).is_none());
    }
}
