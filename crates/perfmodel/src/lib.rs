//! # md-perfmodel
//!
//! A calibrated multicore **cost model** for the irregular-reduction
//! strategies of `sdc-core`.
//!
//! ## Why this exists (substitution note)
//!
//! The paper's evaluation (Table 1, Fig. 9) reports *speedup versus core
//! count* on a 4-socket, 16-core Xeon E7320. The present reproduction
//! environment exposes **one** CPU, so wall-clock speedup cannot physically
//! materialize — any thread count collapses onto the same core. Following
//! the reproduction ground rules ("if the paper requires hardware you do not
//! have, simulate it"), this crate models the parallel execution of each
//! strategy analytically and *deterministically*, driven by:
//!
//! * the **real decomposition geometry** from `sdc-core` (subdomain counts,
//!   colors, tasks per color — the same code the real engine runs), and
//! * a **per-pair kernel cost calibrated on the host** by timing the real
//!   serial EAM sweeps (see the bench harness), plus documented
//!   synchronization constants.
//!
//! The model computes, per strategy and thread count `P`:
//!
//! | strategy | modeled time per sweep |
//! |---|---|
//! | Serial | `pairs·c_pair` |
//! | SDC | `Σ_colors ceil(tasks_c/P)·w·ovh(P) + colors·barrier(P)` — round-based makespan of equal subdomain tasks, plus one barrier per color |
//! | CS | `W/P·ovh(P) + pairs·c_lock·(1 + λ(P−1))` — compute scales, lock traffic is serialized and degrades with contention |
//! | Atomic | `W/P·ovh(P) + pairs·c_atomic·(1 + λₐ(P−1))` |
//! | Locks | `W/P·ovh(P) + pairs·2c_lock·(1 + λₐ(P−1))/P` — striped locks parallelize but pay two lock round-trips per pair |
//! | LOCALWRITE | `W·(1 + boundary_frac)/P·ovh(P) + barrier(P)` — class 3: no sync, boundary pairs computed twice |
//! | SAP | `W/P·ovh(P)·(1 + σ(P−1)) + N·c_zero + P·N·c_merge` — private-copy cache pressure plus the serialized merge |
//! | RC | `κ_rc·W/P·ovh(P) + barrier(P)` — doubled pair work, one barrier |
//!
//! with `ovh(P) = 1 + μ·ln P` the shared-memory-bandwidth degradation.
//! Speedup is `T(serial) / T(strategy, P)` — the paper's metric, over the
//! paper's timed phases (density + force: `sweeps = 2`).
//!
//! The *shape* claims of the paper are encoded as unit tests: SDC ≈ linear
//! and best overall; CS worst and flat below ~1.5; SAP competitive at low P
//! but degrading past 8; RC near-linear at half slope with SDC/RC ≈ 1.7 on
//! large cases; 1-D SDC saturating at its subdomain count.

#![warn(missing_docs)]

pub mod balance;
pub mod case;
pub mod machine;
pub mod model;
pub mod observed;
pub mod rebuild;
pub mod shard;
pub mod table;

pub use balance::{makespan_params, predicted_schedule_seconds, ObservedMakespan};
pub use case::CaseGeometry;
pub use machine::MachineParams;
pub use observed::ObservedImbalance;
pub use model::{predict_seconds, speedup};
pub use rebuild::{predict_step_with_rebuild, rebuild_seconds, speedup_with_rebuild};
pub use shard::{predict_shard_step, shard_speedup, ShardLinkParams};
pub use table::{
    fig9_rows, table1_rows, table1_rows_with_rebuild, Fig9Row, Table1Row, FIG9_STRATEGIES,
    THREAD_SWEEP,
};
