//! # md-neighbor
//!
//! Neighbor-finding machinery for short-range molecular dynamics:
//!
//! * [`CellGrid`] — linked-cell binning of atoms into cutoff-sized cells;
//! * [`NeighborList`] — Verlet neighbor lists (Verlet 1967), in both the
//!   **half** form (each pair stored once, enabling Newton's-third-law
//!   accumulation — the source of the irregular-reduction hazard the paper
//!   solves) and the **full** form (each pair stored twice, used by the
//!   paper's *Redundant Computation* baseline);
//! * [`Csr`] — compressed sparse row storage. This is exactly the paper's
//!   "regular arrays" representation of `neighindex[]` / `neighlen[]`
//!   (§II.D.2): a single offsets array replaces both irregular arrays;
//! * [`reorder`] — the paper's data-reordering locality optimizations
//!   (§II.D): spatially sorted atom order and ascending-sorted neighbor rows.
//!
//! All atom indices are `u32` (4 bytes) rather than `usize`: neighbor lists
//! dominate the memory footprint of EAM simulations (the paper's motivation,
//! §I), and halving index width halves that footprint and the bandwidth the
//! force loops consume.

#![warn(missing_docs)]

pub mod cell_grid;
pub mod csr;
pub mod reorder;
pub mod stats;
pub mod verlet;

pub use cell_grid::CellGrid;
pub use csr::Csr;
pub use reorder::Permutation;
pub use stats::NeighborStats;
pub use verlet::{NeighborList, NeighborListKind, VerletConfig};
