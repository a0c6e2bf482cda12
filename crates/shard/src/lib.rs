//! Sharded halo-exchange domain decomposition (DESIGN.md §15).
//!
//! The crate splits the simulation box into slab subdomains along one axis;
//! each *shard* owns the atoms inside its slab and runs the existing
//! [`md_sim::ForceEngine`] stack locally on its owned atoms plus a halo of
//! *ghost* atoms imported from the other shards. Two exchanges per force
//! evaluation keep the EAM physics exact:
//!
//! 1. **positions** of every remote atom within `cutoff + skin` of the slab
//!    are shipped in before the density phase (EAM phases 1–2), and
//! 2. **embedding derivatives** `F'(ρ)` of those same atoms are shipped in
//!    between the density and the force phase (EAM phase 3), because the
//!    pair force needs the *owner's* fp for both endpoints.
//!
//! Forces computed on ghosts are discarded (no reverse communication), and
//! owned atoms migrate to their new shard at every neighbor-list rebuild.
//!
//! The decomposition is driven through a *control* protocol ([`msg::Msg`])
//! over an abstract [`world::Transport`], while halo payloads flow over a
//! direct peer mesh ([`mesh::PeerMesh`]) the driver brokers at boot. Both
//! planes carry the same wire form ([`codec`]): length-prefixed,
//! checksummed frames around a tagged little-endian message whose floats
//! travel as raw bit patterns. Two backends:
//!
//! * [`world::MemTransport`] — *virtual ranks*: every shard lives in the
//!   driver process, control messages are routed through the real wire
//!   codec and halos through a [`mesh::ChannelMesh`] carrying the same
//!   frames, so the conformance battery exercises the exact bytes the
//!   process backend ships.
//! * [`proc::ProcessWorld`] — one `mdshard-worker` process per shard over
//!   Unix-domain sockets, halos over a [`mesh::SocketMesh`] of direct
//!   shard ↔ shard streams, with real inter-shard parallelism, per-shard
//!   checkpoints and typed fault detection when a worker dies.

pub mod ckpt;
pub mod codec;
pub mod core;
pub mod layout;
pub mod mesh;
pub mod msg;
pub mod proc;
pub mod world;

pub use ckpt::CkptError;
pub use codec::{Codec, CodecError};
pub use core::ShardCore;
pub use layout::ShardLayout;
pub use mesh::{ChannelMesh, MeshProvider, PeerMesh, SocketMesh};
pub use msg::{GhostExport, HaloCounters, InitSpec, Msg, PhaseStat, ShardAtom};
pub use proc::{ProcessWorld, SocketTransport};
pub use world::{MemTransport, ShardStats, ShardWorld, Transport, WorldSpec};

use md_potential::{AnalyticEam, LennardJones, TabulatedEam};
use md_sim::PotentialChoice;
use std::sync::Arc;

/// A failure of the sharded run: transport, codec, protocol or worker
/// lifecycle. Every variant names the rank it was observed on, so the
/// driver can report *which* shard died.
#[derive(Debug)]
pub enum ShardFault {
    /// An I/O error on a transport that is not a clean peer disappearance.
    Io {
        /// Rank of the link the error occurred on.
        rank: usize,
        /// The underlying error.
        error: std::io::Error,
    },
    /// The peer closed its end of the link (worker killed or exited).
    TransportClosed {
        /// Rank whose link went dead.
        rank: usize,
    },
    /// A frame arrived but could not be decoded.
    Codec {
        /// Rank the frame came from (or was being sent to).
        rank: usize,
        /// What was wrong with the bytes.
        error: CodecError,
    },
    /// A well-formed message violated the request/reply state machine.
    Protocol {
        /// Rank that broke the protocol.
        rank: usize,
        /// Human-readable description.
        detail: String,
    },
    /// A worker process failed to start or exited unexpectedly.
    WorkerExit {
        /// Rank of the worker.
        rank: usize,
        /// Exit status or spawn error description.
        status: String,
    },
    /// A checkpoint read/write failed.
    Ckpt(CkptError),
}

impl std::fmt::Display for ShardFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardFault::Io { rank, error } => write!(f, "shard {rank}: transport I/O error: {error}"),
            ShardFault::TransportClosed { rank } => {
                write!(f, "shard {rank}: transport closed (worker gone)")
            }
            ShardFault::Codec { rank, error } => write!(f, "shard {rank}: codec error: {error}"),
            ShardFault::Protocol { rank, detail } => {
                write!(f, "shard {rank}: protocol violation: {detail}")
            }
            ShardFault::WorkerExit { rank, status } => {
                write!(f, "shard {rank}: worker exited: {status}")
            }
            ShardFault::Ckpt(e) => write!(f, "shard checkpoint: {e}"),
        }
    }
}

impl std::error::Error for ShardFault {}

impl From<CkptError> for ShardFault {
    fn from(e: CkptError) -> ShardFault {
        ShardFault::Ckpt(e)
    }
}

/// Builds the engine potential a shard worker runs, from the wire-level
/// `(name, tabulated)` pair. The construction mirrors `mdrun`'s exactly so
/// a single-shard run is bitwise identical to the unsharded engine.
pub fn build_potential(name: &str, tabulated: bool) -> Result<PotentialChoice, String> {
    match (name, tabulated) {
        ("fe", false) => Ok(PotentialChoice::Eam(Arc::new(AnalyticEam::fe()))),
        ("cu", false) => Ok(PotentialChoice::Eam(Arc::new(AnalyticEam::cu()))),
        ("fe", true) | ("cu", true) => {
            let src = if name == "fe" {
                AnalyticEam::fe()
            } else {
                AnalyticEam::cu()
            };
            Ok(PotentialChoice::Eam(Arc::new(TabulatedEam::standard(
                &src,
                src.rho_e(),
            ))))
        }
        ("lj", false) => Ok(PotentialChoice::Pair(Arc::new(LennardJones::new(
            0.0104, 3.4, 8.5,
        )))),
        ("lj", true) => Err("tabulated requires an EAM potential".to_string()),
        (other, _) => Err(format!("unknown potential '{other}'")),
    }
}
