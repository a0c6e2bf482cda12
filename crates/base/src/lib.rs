//! # md-base
//!
//! The bottom of the workspace's dependency graph, std-only:
//!
//! * [`pool`] — the one thread pool every parallel loop runs on, and the
//!   shared-slice view its disjoint-write loops use;
//! * [`rng`] — the one random number generator (xoshiro256** seeded by
//!   SplitMix64);
//! * [`simd`] — the one runtime switch between the lane kernels' AVX2 and
//!   scalar legs.

#![warn(missing_docs)]

pub mod pool;
pub mod rng;
pub mod simd;
