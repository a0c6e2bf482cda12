//! # sdc-core
//!
//! The paper's contribution: **Spatial Decomposition Coloring (SDC)** for
//! parallelizing reduction operations on irregular arrays, together with the
//! baseline strategies it is evaluated against.
//!
//! ## The problem
//!
//! Short-range MD force loops over *half* neighbor lists apply Newton's
//! third law: each stored pair `(i, j)` updates **both** `out[i]` and
//! `out[j]` (paper Figs. 1–2). Parallelizing the outer loop naively lets two
//! threads update the same element concurrently — the classic irregular
//! array reduction.
//!
//! ## The strategies (paper §I taxonomy and §III comparison)
//!
//! | [`StrategyKind`] | Paper class | Mechanism |
//! |---|---|---|
//! | `Serial` | — | reference single-thread sweep |
//! | `Sdc { dims }` | the contribution | color subdomains (2/4/8 colors); within a color, write footprints are geometrically disjoint — no synchronization; barrier between colors |
//! | `Critical` | class 1 | one global lock around every scatter update |
//! | `Atomic` | class 1 | CAS-loop atomic adds per lane |
//! | `Privatized` | class 2 (SAP) | per-thread private copies, serialized merge |
//! | `Redundant` | class 5 (RC) | full neighbor list, gather-only, 2× compute |
//!
//! All strategies produce identical results up to floating-point summation
//! order; the test suites assert tight agreement.
//!
//! ## Safety
//!
//! The strategies' unsynchronized writes go through
//! [`md_base::pool::SharedSlice`], the aliased output array handed to
//! same-color subdomain tasks. Its soundness rests on the geometric
//! disjointness invariant established by
//! [`plan::SdcPlan::validate_footprints`], which is checked by construction
//! in debug builds and exhaustively in the test suite.

#![warn(missing_docs)]

pub mod decomposition;
pub mod metrics;
pub mod plan;
pub mod scatter;
pub mod schedule;
pub mod strategies;
pub mod taskgraph;

/// The thread pool every strategy runs on ([`md_base::pool::Pool`]). The
/// paper pins one OpenMP thread per core and sweeps thread counts; here each
/// configuration is one pool of exactly that many workers, made current
/// with `install`.
pub use md_base::pool::Pool as ParallelContext;
pub use decomposition::{ColoredDecomposition, DecompositionConfig, DecompositionError};
pub use metrics::{Counter, DurationHistogram, Gauge, QueueMetrics, ScatterMetrics};
pub use plan::SdcPlan;
pub use scatter::{PairTerm, ScatterValue, TaskRows, TaskRowsIter};
pub use schedule::{BalancedPlan, ColorSchedule, MakespanParams, PlanChoice};
pub use strategies::{DowngradeEvent, ScatterExec, StrategyKind};
pub use taskgraph::TaskGraph;
