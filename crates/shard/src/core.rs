//! The per-shard state machine: owned atoms, ghost halo, and the local
//! engine, driven by control messages and exchanging halos directly with
//! its peers.
//!
//! One `ShardCore` is the *entire* worker logic. The virtual-rank backend
//! embeds it behind [`crate::world::MemTransport`] (with a
//! [`crate::mesh::ChannelMesh`] for peer traffic); the `mdshard-worker`
//! binary wraps it in a read-frame/handle/write-frame loop (with a
//! [`crate::mesh::SocketMesh`]). Both therefore execute the same code on
//! the same wire bytes.
//!
//! # Halo rounds
//!
//! Ghost traffic never touches the driver. A step's force evaluation is
//! three control rounds, each of which triggers peer I/O here:
//!
//! 1. `MigIn` (rebuild leg) or `HaloPos` (plain leg): push this shard's
//!    ghost exports — full `PeerGhosts` after a repartition, bare
//!    `PeerPos` refreshes otherwise — to every peer. The frames wait in
//!    the mesh's outboxes and kernel buffers; the next round's receive
//!    finishes sending them.
//! 2. `HaloDensity`: pull the peers' exports in, install them, run the
//!    density phase (EAM phases 1–2), and immediately push the exported
//!    atoms' `F'(ρ)` as `PeerFp` frames — peers still inside their own
//!    density pass receive them asynchronously, which is the overlap the
//!    engine's density/force split makes possible.
//! 3. `HaloForce`: pull the peers' `PeerFp` in, run the force phase, and
//!    close the step with the second half-kick.
//!
//! # Determinism
//!
//! * Owned atoms are kept sorted by global id; migration preserves the
//!   order and arrivals are merge-sorted back in.
//! * Ghosts are appended grouped by source rank (ascending), each group in
//!   the owner's export order (ascending gid). The local system layout —
//!   and with it the neighbor CSR and every scatter sweep — is therefore a
//!   pure function of the owned state, and a fixed shard count replays
//!   bitwise.
//! * The integrator fragments replicate [`md_sim::integrate`]'s per-atom
//!   arithmetic exactly (same kick constant, same operation order), so a
//!   single serial shard is bitwise identical to the unsharded engine.

use crate::ckpt;
use crate::layout::ShardLayout;
use crate::mesh::{halo_counters, MeshProvider, PeerMesh};
use crate::msg::{GhostExport, InitSpec, Msg, PhaseStat, ShardAtom};
use md_geometry::{Axis, SimBox, Vec3};
use md_sim::units::FORCE2ACCEL;
use md_sim::{ForceEngine, Phase, PhaseTimers, PotentialChoice, System};
use sdc_core::StrategyKind;

/// A shard worker: uninitialized until it sees `Init`, meshless until the
/// driver brokers the peer links.
pub struct ShardCore {
    provider: Box<dyn MeshProvider>,
    state: Option<CoreState>,
}

struct CoreState {
    rank: usize,
    n_ranks: usize,
    layout: ShardLayout,
    axis: Axis,
    sim_box: SimBox,
    mass: f64,
    dt: f64,
    skin: f64,
    reach: f64,
    potential: PotentialChoice,
    fused: bool,
    simd: bool,
    strategy: StrategyKind,
    threads: usize,
    step: u64,
    /// Global ids of owned atoms, ascending; parallel to the owned prefix
    /// of `system` (or to `pend_pos`/`pend_vel` between evict and install).
    gids: Vec<u64>,
    pend_pos: Vec<Vec3>,
    pend_vel: Vec<Vec3>,
    system: Option<System>,
    engine: Option<ForceEngine>,
    n_owned: usize,
    /// Owned positions at the last rebuild (displacement reference).
    ref_pos: Vec<Vec3>,
    /// Per target rank: owned indices exported as ghosts, ascending.
    exports: Vec<Vec<usize>>,
    /// Per source rank: number of ghosts installed from it.
    ghost_counts: Vec<usize>,
    /// The peer mesh, once the driver has brokered it.
    mesh: Option<Box<dyn PeerMesh>>,
    /// The next `HaloDensity` installs full `PeerGhosts` (export sets just
    /// changed) rather than `PeerPos` refreshes.
    fresh_ghosts: bool,
    /// Ghost position records sent to peers (cumulative).
    ghost_sent: u64,
    /// Ghost position records installed from peers (cumulative).
    ghost_installed: u64,
    /// Timers of engines retired by earlier rebuilds.
    acc_timers: PhaseTimers,
}

impl ShardCore {
    /// An empty core awaiting `Init`; `provider` supplies the peer mesh
    /// when the driver brokers it.
    pub fn new(provider: Box<dyn MeshProvider>) -> ShardCore {
        ShardCore {
            provider,
            state: None,
        }
    }

    /// Processes one message; `Ok(None)` means shutdown was requested.
    /// Errors are protocol violations the transport wraps into a
    /// [`crate::ShardFault::Protocol`].
    pub fn handle(&mut self, msg: Msg) -> Result<Option<Msg>, String> {
        match msg {
            Msg::Init(spec) => {
                let state = CoreState::from_spec(*spec)?;
                let rank = state.rank as u64;
                self.state = Some(state);
                Ok(Some(Msg::Ready { rank }))
            }
            Msg::Shutdown => Ok(None),
            Msg::PeerListen { dir } => {
                let state = self.state.as_ref().ok_or("peer_listen before init")?;
                self.provider.listen(state.rank, state.n_ranks, &dir)?;
                Ok(Some(Msg::PeerBound))
            }
            Msg::PeerConnect => {
                let state = self.state.as_mut().ok_or("peer_connect before init")?;
                state.mesh = Some(self.provider.connect(state.rank, state.n_ranks)?);
                Ok(Some(Msg::PeerReady))
            }
            other => {
                let state = self
                    .state
                    .as_mut()
                    .ok_or_else(|| format!("message before init: {other:?}"))?;
                state.handle(other).map(Some)
            }
        }
    }
}

impl CoreState {
    fn from_spec(spec: InitSpec) -> Result<CoreState, String> {
        if spec.rank >= spec.n_ranks {
            return Err(format!("rank {} out of {}", spec.rank, spec.n_ranks));
        }
        let axis = if spec.axis < 3 {
            Axis::from_index(spec.axis)
        } else {
            return Err(format!("bad axis index {}", spec.axis));
        };
        let potential = crate::build_potential(&spec.potential, spec.tabulated)?;
        let strategy = StrategyKind::parse(&spec.strategy)
            .ok_or_else(|| format!("unknown strategy '{}'", spec.strategy))?;
        let sim_box = SimBox::periodic(Vec3::from_array(spec.box_lengths));
        let layout = ShardLayout::new(axis, sim_box.length(axis), spec.n_ranks);
        let reach = potential.cutoff() + spec.skin;
        let mut atoms = spec.atoms;
        atoms.sort_by_key(|a| a.gid);
        let n = spec.n_ranks;
        Ok(CoreState {
            rank: spec.rank,
            n_ranks: n,
            layout,
            axis,
            sim_box,
            mass: spec.mass,
            dt: spec.dt,
            skin: spec.skin,
            reach,
            potential,
            fused: spec.fused,
            simd: spec.simd,
            strategy,
            threads: spec.threads,
            step: spec.step,
            gids: atoms.iter().map(|a| a.gid).collect(),
            pend_pos: atoms.iter().map(|a| a.pos).collect(),
            pend_vel: atoms.iter().map(|a| a.vel).collect(),
            system: None,
            engine: None,
            n_owned: 0,
            ref_pos: Vec::new(),
            exports: vec![Vec::new(); n],
            ghost_counts: vec![0; n],
            mesh: None,
            fresh_ghosts: false,
            ghost_sent: 0,
            ghost_installed: 0,
            acc_timers: PhaseTimers::new(),
        })
    }

    fn handle(&mut self, msg: Msg) -> Result<Msg, String> {
        match msg {
            Msg::Begin => self.begin(),
            Msg::Migrate => self.migrate(),
            Msg::MigIn { atoms } => self.mig_in(atoms),
            Msg::HaloPos => self.halo_pos(),
            Msg::HaloDensity => self.halo_density(),
            Msg::HaloForce { kick } => self.halo_force(kick),
            Msg::Save { dir } => self.save(&dir),
            Msg::Gather => Ok(Msg::State {
                atoms: self.owned_atoms(),
            }),
            Msg::Stats => Ok(self.stats()),
            Msg::Counters => Ok(Msg::CountersOut {
                counters: halo_counters(
                    self.mesh.as_deref(),
                    self.ghost_sent,
                    self.ghost_installed,
                ),
            }),
            other => Err(format!("unexpected request {other:?}")),
        }
    }

    fn mesh(&mut self) -> Result<&mut Box<dyn PeerMesh>, String> {
        self.mesh.as_mut().ok_or_else(|| "peer mesh not connected".to_string())
    }

    /// First half-kick + drift + wrap of the owned atoms, then the max
    /// squared displacement since the last rebuild (driver ORs the rebuild
    /// decision across shards). Matches `velocity_verlet`'s arithmetic.
    fn begin(&mut self) -> Result<Msg, String> {
        let n = self.n_owned;
        let kick = 0.5 * self.dt * FORCE2ACCEL / self.mass;
        let system = self.system.as_mut().ok_or("begin before forces ready")?;
        {
            let (vel, force) = system.kick_buffers();
            for (v, f) in vel[..n].iter_mut().zip(&force[..n]) {
                *v += *f * kick;
            }
        }
        {
            let dt = self.dt;
            let (pos, vel) = system.drift_buffers();
            for (p, v) in pos[..n].iter_mut().zip(&vel[..n]) {
                *p += *v * dt;
            }
        }
        let positions = system.positions_mut();
        for p in positions[..n].iter_mut() {
            *p = self.sim_box.wrap(*p);
        }
        let max_sq = positions[..n]
            .iter()
            .zip(&self.ref_pos)
            .map(|(&p, &q)| self.sim_box.distance_sq(p, q))
            .fold(0.0, f64::max);
        Ok(Msg::DispOut { max_sq })
    }

    /// Moves the owned state out of the system (dropping ghosts and the
    /// engine) back into the pending arrays, banking the engine's timers.
    fn take_owned(&mut self) {
        if let Some(engine) = self.engine.take() {
            self.acc_timers.merge(engine.timers());
        }
        if let Some(system) = self.system.take() {
            let n = self.n_owned;
            self.pend_pos = system.positions()[..n].to_vec();
            self.pend_vel = system.velocities()[..n].to_vec();
        }
        self.n_owned = 0;
    }

    fn migrate(&mut self) -> Result<Msg, String> {
        if self.system.is_none() {
            return Err("migrate before install".to_string());
        }
        self.take_owned();
        let axis = self.axis.index();
        let mut to: Vec<Vec<ShardAtom>> = vec![Vec::new(); self.n_ranks];
        let mut keep_g = Vec::with_capacity(self.gids.len());
        let mut keep_p = Vec::with_capacity(self.gids.len());
        let mut keep_v = Vec::with_capacity(self.gids.len());
        for i in 0..self.gids.len() {
            let dest = self.layout.rank_of(self.pend_pos[i][axis]);
            if dest == self.rank {
                keep_g.push(self.gids[i]);
                keep_p.push(self.pend_pos[i]);
                keep_v.push(self.pend_vel[i]);
            } else {
                to[dest].push(ShardAtom {
                    gid: self.gids[i],
                    pos: self.pend_pos[i],
                    vel: self.pend_vel[i],
                });
            }
        }
        self.gids = keep_g;
        self.pend_pos = keep_p;
        self.pend_vel = keep_v;
        Ok(Msg::MigOut { to })
    }

    /// Rebuild-leg halo send: adopt migrated arrivals, re-select the ghost
    /// export sets, and push full `PeerGhosts` batches to every peer.
    fn mig_in(&mut self, atoms: Vec<ShardAtom>) -> Result<Msg, String> {
        // Tolerate a still-installed system so the initial force refresh
        // (and a re-refresh after resume) can reuse this path directly.
        if self.system.is_some() {
            self.take_owned();
        }
        for a in atoms {
            self.gids.push(a.gid);
            self.pend_pos.push(a.pos);
            self.pend_vel.push(a.vel);
        }
        // Re-establish the canonical ascending-gid order.
        let mut order: Vec<usize> = (0..self.gids.len()).collect();
        order.sort_by_key(|&i| self.gids[i]);
        self.gids = order.iter().map(|&i| self.gids[i]).collect();
        self.pend_pos = order.iter().map(|&i| self.pend_pos[i]).collect();
        self.pend_vel = order.iter().map(|&i| self.pend_vel[i]).collect();

        let axis = self.axis.index();
        let mut out: Vec<Option<Msg>> = Vec::with_capacity(self.n_ranks);
        for t in 0..self.n_ranks {
            if t == self.rank {
                self.exports[t] = Vec::new();
                out.push(None);
                continue;
            }
            let mut export = GhostExport::default();
            let mut idx = Vec::new();
            for (i, &p) in self.pend_pos.iter().enumerate() {
                if self.layout.axis_dist(p[axis], t) <= self.reach {
                    idx.push(i);
                    export.gids.push(self.gids[i]);
                    export.pos.push(p);
                }
            }
            self.exports[t] = idx;
            self.ghost_sent += export.gids.len() as u64;
            out.push(Some(Msg::PeerGhosts { export }));
        }
        if self.n_ranks > 1 {
            self.mesh()?.send_peers(out)?;
        }
        self.fresh_ghosts = true;
        Ok(Msg::HaloSent)
    }

    /// Plain-leg halo send: current positions of the standing export sets
    /// as bare `PeerPos` frames.
    fn halo_pos(&mut self) -> Result<Msg, String> {
        let out = {
            let system = self.system.as_ref().ok_or("halo_pos before install")?;
            let pos = system.positions();
            let mut out: Vec<Option<Msg>> = Vec::with_capacity(self.n_ranks);
            for (t, idx) in self.exports.iter().enumerate() {
                if t == self.rank {
                    out.push(None);
                } else {
                    out.push(Some(Msg::PeerPos {
                        pos: idx.iter().map(|&i| pos[i]).collect(),
                    }));
                }
            }
            out
        };
        for m in out.iter().flatten() {
            if let Msg::PeerPos { pos } = m {
                self.ghost_sent += pos.len() as u64;
            }
        }
        if self.n_ranks > 1 {
            self.mesh()?.send_peers(out)?;
        }
        Ok(Msg::HaloSent)
    }

    /// Pulls the peers' halo exports in, installs them, runs the density
    /// phase, and pushes the exported atoms' `F'(ρ)` back out.
    fn halo_density(&mut self) -> Result<Msg, String> {
        let from = if self.n_ranks > 1 {
            self.mesh()?.recv_peers()?
        } else {
            vec![None]
        };
        if from.len() != self.n_ranks {
            return Err("halo_density rank count mismatch".to_string());
        }
        if self.fresh_ghosts {
            self.install_fresh_ghosts(from)?;
        } else {
            self.refresh_ghost_positions(from)?;
        }
        let (system, engine) = match (self.system.as_mut(), self.engine.as_mut()) {
            (Some(s), Some(e)) => (s, e),
            _ => return Err("halo_density before install".to_string()),
        };
        engine.compute_density_phase(system);
        // Push F'(ρ) of our exports right away: peers still in their
        // density pass absorb the frames from their kernel buffers later.
        let fp = system.fp();
        let mut out: Vec<Option<Msg>> = Vec::with_capacity(self.n_ranks);
        for (t, idx) in self.exports.iter().enumerate() {
            if t == self.rank {
                out.push(None);
            } else {
                out.push(Some(Msg::PeerFp {
                    fp: idx.iter().map(|&i| fp[i]).collect(),
                }));
            }
        }
        if self.n_ranks > 1 {
            self.mesh()?.send_peers(out)?;
        }
        Ok(Msg::DensityDone)
    }

    /// Installs full ghost batches after a repartition and rebuilds the
    /// local system + engine around the new halo.
    fn install_fresh_ghosts(&mut self, from: Vec<Option<Msg>>) -> Result<(), String> {
        let n_owned = self.pend_pos.len();
        let mut positions = std::mem::take(&mut self.pend_pos);
        for (s, slot) in from.into_iter().enumerate() {
            if s == self.rank {
                self.ghost_counts[s] = 0;
                continue;
            }
            let export = match slot {
                Some(Msg::PeerGhosts { export }) => export,
                other => return Err(format!("expected peer_ghosts from rank {s}, got {other:?}")),
            };
            self.ghost_counts[s] = export.pos.len();
            self.ghost_installed += export.pos.len() as u64;
            positions.extend_from_slice(&export.pos);
        }
        let mut system = System::new(self.sim_box, positions, self.mass);
        system.velocities_mut()[..n_owned].copy_from_slice(&self.pend_vel);
        self.pend_vel.clear();
        self.n_owned = n_owned;
        self.ref_pos = system.positions()[..n_owned].to_vec();
        // The halo path rebuilds by constructing a fresh engine, so the
        // neighbor-list cost is banked here rather than by maybe_rebuild.
        let rebuild_start = std::time::Instant::now();
        let mut engine = ForceEngine::with_fallback(
            &system,
            self.potential.clone(),
            self.strategy,
            self.threads,
            self.skin,
        )
        .map_err(|e| format!("engine rebuild failed: {e}"))?;
        self.acc_timers
            .add(Phase::Neighbor, rebuild_start.elapsed());
        engine.set_fused(self.fused);
        engine.set_simd(self.simd);
        self.system = Some(system);
        self.engine = Some(engine);
        self.fresh_ghosts = false;
        Ok(())
    }

    /// Overwrites the standing ghost slots with the peers' refreshed
    /// positions (plain leg: export sets unchanged since the last rebuild).
    fn refresh_ghost_positions(&mut self, from: Vec<Option<Msg>>) -> Result<(), String> {
        let system = self.system.as_mut().ok_or("halo_density before install")?;
        let positions = system.positions_mut();
        let mut base = self.n_owned;
        for (s, slot) in from.into_iter().enumerate() {
            if s == self.rank {
                continue;
            }
            let batch = match slot {
                Some(Msg::PeerPos { pos }) => pos,
                other => return Err(format!("expected peer_pos from rank {s}, got {other:?}")),
            };
            if batch.len() != self.ghost_counts[s] {
                return Err(format!(
                    "ghost count mismatch from rank {s}: got {}, expected {}",
                    batch.len(),
                    self.ghost_counts[s]
                ));
            }
            positions[base..base + batch.len()].copy_from_slice(&batch);
            self.ghost_installed += batch.len() as u64;
            base += batch.len();
        }
        Ok(())
    }

    /// Pulls the peers' `F'(ρ)` in, runs the force phase, and (on a real
    /// step) closes with the second half-kick.
    fn halo_force(&mut self, kick: bool) -> Result<Msg, String> {
        let from = if self.n_ranks > 1 {
            self.mesh()?.recv_peers()?
        } else {
            vec![None]
        };
        if from.len() != self.n_ranks {
            return Err("halo_force rank count mismatch".to_string());
        }
        {
            let system = self.system.as_mut().ok_or("halo_force before install")?;
            let fp = system.fp_mut();
            let mut base = self.n_owned;
            for (s, slot) in from.into_iter().enumerate() {
                if s == self.rank {
                    continue;
                }
                let batch = match slot {
                    Some(Msg::PeerFp { fp }) => fp,
                    other => return Err(format!("expected peer_fp from rank {s}, got {other:?}")),
                };
                if batch.len() != self.ghost_counts[s] {
                    return Err(format!(
                        "fp count mismatch from rank {s}: got {}, expected {}",
                        batch.len(),
                        self.ghost_counts[s]
                    ));
                }
                fp[base..base + batch.len()].copy_from_slice(&batch);
                base += batch.len();
            }
        }
        let system = self.system.as_mut().unwrap();
        self.engine.as_mut().unwrap().compute_force_phase(system);
        if kick {
            let n = self.n_owned;
            let k = 0.5 * self.dt * FORCE2ACCEL / self.mass;
            let (vel, force) = system.kick_buffers();
            for (v, f) in vel[..n].iter_mut().zip(&force[..n]) {
                *v += *f * k;
            }
            self.step += 1;
        }
        Ok(Msg::StepDone { step: self.step })
    }

    fn owned_atoms(&self) -> Vec<ShardAtom> {
        let (pos, vel): (&[Vec3], &[Vec3]) = match &self.system {
            Some(s) => (&s.positions()[..self.n_owned], &s.velocities()[..self.n_owned]),
            None => (&self.pend_pos, &self.pend_vel),
        };
        self.gids
            .iter()
            .zip(pos.iter().zip(vel))
            .map(|(&gid, (&pos, &vel))| ShardAtom { gid, pos, vel })
            .collect()
    }

    fn save(&mut self, dir: &str) -> Result<Msg, String> {
        let path = ckpt::save_shard(
            std::path::Path::new(dir),
            self.rank,
            self.n_ranks,
            self.step,
            &self.owned_atoms(),
        )
        .map_err(|e| format!("checkpoint save failed: {e}"))?;
        Ok(Msg::Saved {
            path: path.to_string_lossy().into_owned(),
        })
    }

    fn stats(&self) -> Msg {
        let mut merged = PhaseTimers::new();
        merged.merge(&self.acc_timers);
        if let Some(engine) = &self.engine {
            merged.merge(engine.timers());
        }
        let phases = [
            (Phase::Density, "density"),
            (Phase::Embedding, "embedding"),
            (Phase::Force, "force"),
            (Phase::Neighbor, "neighbor"),
            (Phase::Other, "other"),
        ]
        .into_iter()
        .map(|(phase, name)| PhaseStat {
            name: name.to_string(),
            seconds: merged.elapsed(phase).as_secs_f64(),
            count: merged.count(phase),
        })
        .collect();
        Msg::StatsOut { phases }
    }
}

/// Maps a wire phase name back to the engine's [`Phase`].
pub fn phase_by_name(name: &str) -> Option<Phase> {
    Some(match name {
        "density" => Phase::Density,
        "embedding" => Phase::Embedding,
        "force" => Phase::Force,
        "neighbor" => Phase::Neighbor,
        "other" => Phase::Other,
        _ => return None,
    })
}
