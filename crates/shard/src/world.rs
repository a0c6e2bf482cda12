//! The shard driver: a control plane running the velocity-Verlet protocol
//! over N transports.
//!
//! The driver never touches atom physics — and since PR 9, never touches
//! halo payloads either. At boot it brokers the peer mesh (every shard
//! binds its rendezvous endpoint, then every shard dials/accepts its
//! peers), after which ghost positions and embedding derivatives flow
//! shard ↔ shard directly. What remains on the driver links is pure
//! control: rebuild votes, migration manifests, checkpoint commands,
//! stats polls, and fault propagation. Every step is a fixed round-trip
//! schedule (see [`crate::msg`]); the control rounds double as the phase
//! barrier the mesh relies on.

use crate::codec;
use crate::core::{phase_by_name, ShardCore};
use crate::layout::ShardLayout;
use crate::mesh::{channel_mesh_set, ChannelMesh, ChannelMeshProvider};
use crate::msg::{HaloCounters, InitSpec, Msg, ShardAtom};
use crate::{ckpt, ShardFault};
use md_geometry::{Axis, SimBox, Vec3};
use md_sim::metrics::report::ShardsInfo;
use md_sim::metrics::SimMetrics;
use md_sim::{PhaseTimers, System};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One bidirectional driver ↔ shard link.
pub trait Transport {
    /// Delivers one request to the shard.
    fn send(&mut self, msg: &Msg) -> Result<(), ShardFault>;
    /// Receives the shard's next reply.
    fn recv(&mut self) -> Result<Msg, ShardFault>;
}

/// The virtual-rank backend: the shard lives inside the driver process and
/// requests are processed inline — but every control message still passes
/// through the wire [`codec`] (and peer traffic through a [`ChannelMesh`]
/// carrying frames), so the conformance battery exercises the exact bytes
/// the process backend puts on a socket.
pub struct MemTransport {
    rank: usize,
    core: ShardCore,
    replies: VecDeque<Vec<u8>>,
}

impl MemTransport {
    /// A fresh in-process shard at `rank`, exchanging halos over `mesh`.
    pub fn new(rank: usize, mesh: ChannelMesh) -> MemTransport {
        MemTransport {
            rank,
            core: ShardCore::new(Box::new(ChannelMeshProvider::new(mesh))),
            replies: VecDeque::new(),
        }
    }
}

impl Transport for MemTransport {
    fn send(&mut self, msg: &Msg) -> Result<(), ShardFault> {
        let frame = codec::encode(msg);
        let (request, _) = codec::decode(&frame).map_err(|error| ShardFault::Codec {
            rank: self.rank,
            error,
        })?;
        match self.core.handle(request) {
            Ok(Some(reply)) => {
                self.replies.push_back(codec::encode(&reply));
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(detail) => Err(ShardFault::Protocol {
                rank: self.rank,
                detail,
            }),
        }
    }

    fn recv(&mut self) -> Result<Msg, ShardFault> {
        let frame = self.replies.pop_front().ok_or_else(|| ShardFault::Protocol {
            rank: self.rank,
            detail: "no pending reply".to_string(),
        })?;
        let (msg, _) = codec::decode(&frame).map_err(|error| ShardFault::Codec {
            rank: self.rank,
            error,
        })?;
        Ok(msg)
    }
}

/// Run configuration shared by every shard.
#[derive(Debug, Clone)]
pub struct WorldSpec {
    /// Potential name (`fe`, `cu`, `lj`).
    pub potential: String,
    /// Use the tabulated EAM form.
    pub tabulated: bool,
    /// Ignored: every shard runs the one EAM evaluation path. Kept only
    /// because perfbench names the field.
    pub fused: bool,
    /// Ignored, like [`WorldSpec::fused`]: the spline backend is
    /// md-potential's runtime choice (`md_potential::simd_active`).
    pub simd: bool,
    /// Scatter strategy name.
    pub strategy: String,
    /// Worker threads per shard.
    pub threads: usize,
    /// Verlet skin (Å).
    pub skin: f64,
    /// Time step (ps).
    pub dt: f64,
    /// Atomic mass (amu).
    pub mass: f64,
}

/// Aggregate decomposition counters: migration/rebuild tallies observed by
/// the driver, halo tallies polled from the shards (the driver never sees
/// peer traffic itself).
#[derive(Debug, Clone, Default)]
pub struct ShardStats {
    /// Ghost position records shipped shard → shard (each refresh of an
    /// export counts once), summed over shards.
    pub ghost_sent: u64,
    /// Ghost position records installed at receiving shards. Conservation
    /// law: after any completed step, `ghost_installed == ghost_sent`.
    pub ghost_installed: u64,
    /// Atoms that changed owner at rebuilds.
    pub migrated: u64,
    /// Neighbor-list rebuild rounds (world-wide, driver-ORed).
    pub rebuilds: u64,
    /// Bytes shards wrote to peer links, summed over shards (counts every
    /// peer frame: ghosts, positions, F′(ρ)).
    pub wire_bytes_sent: u64,
    /// Bytes shards read from peer links, summed over shards.
    pub wire_bytes_recv: u64,
    /// Wall seconds shards spent encoding/shipping/decoding peer frames,
    /// summed over shards.
    pub wire_seconds: f64,
    /// Driver wall seconds spent waiting on shard replies inside the halo
    /// rounds — worker compute plus any straggler imbalance, kept separate
    /// from `wire_seconds` so the cost model calibrates against actual
    /// wire time.
    pub compute_wait_seconds: f64,
}

/// A sharded simulation: N shards behind transports, one driver.
pub struct ShardWorld {
    links: Vec<Box<dyn Transport>>,
    spec: WorldSpec,
    sim_box: SimBox,
    n_atoms: usize,
    step: u64,
    limit_sq: f64,
    stats: ShardStats,
    metrics: Option<Arc<SimMetrics>>,
}

/// The decomposition axis every world uses (slabs along x).
pub const SHARD_AXIS: Axis = Axis::X;

impl ShardWorld {
    /// Stands up a fully in-process world over [`MemTransport`]s with a
    /// pre-wired channel mesh.
    pub fn virtual_world(
        system: &System,
        spec: &WorldSpec,
        shards: usize,
    ) -> Result<ShardWorld, ShardFault> {
        let links = channel_mesh_set(shards)
            .into_iter()
            .enumerate()
            .map(|(r, mesh)| Box::new(MemTransport::new(r, mesh)) as Box<dyn Transport>)
            .collect();
        ShardWorld::with_transports(system, spec, links, "")
    }

    /// Partitions `system` into slabs and boots one shard per transport at
    /// step 0. `mesh_dir` is the rendezvous directory for the peer mesh
    /// (ignored by the channel mesh — pass `""` for virtual ranks).
    /// Forces are *not* computed yet — call
    /// [`ShardWorld::refresh_forces`] before stepping.
    pub fn with_transports(
        system: &System,
        spec: &WorldSpec,
        links: Vec<Box<dyn Transport>>,
        mesh_dir: &str,
    ) -> Result<ShardWorld, ShardFault> {
        let shards = links.len();
        assert!(shards > 0, "a world needs at least one shard");
        assert!(
            system.sim_box().periodicity() == [true; 3],
            "sharding requires a fully periodic box"
        );
        let layout = ShardLayout::new(
            SHARD_AXIS,
            system.sim_box().length(SHARD_AXIS),
            shards,
        );
        let axis = SHARD_AXIS.index();
        let mut per_rank: Vec<Vec<ShardAtom>> = vec![Vec::new(); shards];
        for (gid, (&pos, &vel)) in system
            .positions()
            .iter()
            .zip(system.velocities())
            .enumerate()
        {
            per_rank[layout.rank_of(pos[axis])].push(ShardAtom {
                gid: gid as u64,
                pos,
                vel,
            });
        }
        ShardWorld::boot(*system.sim_box(), spec, links, per_rank, 0, mesh_dir)
    }

    /// Boots a world from the committed checkpoint generation in `dir`,
    /// resuming every shard at the manifest's step.
    pub fn resume_with_transports(
        dir: &Path,
        sim_box: SimBox,
        spec: &WorldSpec,
        links: Vec<Box<dyn Transport>>,
        mesh_dir: &str,
    ) -> Result<ShardWorld, ShardFault> {
        let (step, per_rank) = ckpt::load_world(dir, links.len())?;
        ShardWorld::boot(sim_box, spec, links, per_rank, step, mesh_dir)
    }

    fn boot(
        sim_box: SimBox,
        spec: &WorldSpec,
        mut links: Vec<Box<dyn Transport>>,
        per_rank: Vec<Vec<ShardAtom>>,
        step: u64,
        mesh_dir: &str,
    ) -> Result<ShardWorld, ShardFault> {
        let shards = links.len();
        let n_atoms = per_rank.iter().map(Vec::len).sum();
        for (rank, (link, atoms)) in links.iter_mut().zip(per_rank).enumerate() {
            link.send(&Msg::Init(Box::new(InitSpec {
                rank,
                n_ranks: shards,
                axis: SHARD_AXIS.index(),
                box_lengths: sim_box.lengths().to_array(),
                potential: spec.potential.clone(),
                tabulated: spec.tabulated,
                strategy: spec.strategy.clone(),
                threads: spec.threads,
                skin: spec.skin,
                dt: spec.dt,
                mass: spec.mass,
                step,
                atoms,
            })))?;
        }
        let mut world = ShardWorld {
            links,
            spec: spec.clone(),
            sim_box,
            n_atoms,
            step,
            limit_sq: (spec.skin * 0.5) * (spec.skin * 0.5),
            stats: ShardStats::default(),
            metrics: None,
        };
        for (rank, reply) in world.recv_all()?.into_iter().enumerate() {
            match reply {
                Msg::Ready { rank: r } if r as usize == rank => {}
                other => return Err(world.protocol(rank, format!("expected ready, got {other:?}"))),
            }
        }
        // Broker the peer mesh in two phases so a dial can never race its
        // target's bind: everyone listens, then everyone connects.
        let dir = mesh_dir.to_string();
        world.send_all(|_| Msg::PeerListen { dir: dir.clone() })?;
        world.expect_all(|m| matches!(m, Msg::PeerBound), "peer_bound")?;
        world.send_all(|_| Msg::PeerConnect)?;
        world.expect_all(|m| matches!(m, Msg::PeerReady), "peer_ready")?;
        Ok(world)
    }

    fn protocol(&self, rank: usize, detail: String) -> ShardFault {
        ShardFault::Protocol { rank, detail }
    }

    fn send_all(&mut self, mut mk: impl FnMut(usize) -> Msg) -> Result<(), ShardFault> {
        for (rank, link) in self.links.iter_mut().enumerate() {
            link.send(&mk(rank))?;
        }
        Ok(())
    }

    fn recv_all(&mut self) -> Result<Vec<Msg>, ShardFault> {
        self.links.iter_mut().map(|l| l.recv()).collect()
    }

    fn expect_all(
        &mut self,
        ok: impl Fn(&Msg) -> bool,
        what: &str,
    ) -> Result<(), ShardFault> {
        for (rank, m) in self.recv_all()?.into_iter().enumerate() {
            if !ok(&m) {
                return Err(self.protocol(rank, format!("expected {what}, got {m:?}")));
            }
        }
        Ok(())
    }

    /// `recv_all` with the wait attributed to `compute_wait_seconds`.
    fn recv_all_waiting(&mut self) -> Result<Vec<Msg>, ShardFault> {
        let wait = Instant::now();
        let replies = self.recv_all();
        self.stats.compute_wait_seconds += wait.elapsed().as_secs_f64();
        replies
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.links.len()
    }

    /// Total atom count.
    pub fn n_atoms(&self) -> usize {
        self.n_atoms
    }

    /// Completed step count.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The global box.
    pub fn sim_box(&self) -> &SimBox {
        &self.sim_box
    }

    /// Turns on the driver-side observability bundle (span histograms for
    /// the run report; the scatter section stays empty — per-shard scatter
    /// counters live in the workers).
    pub fn enable_metrics(&mut self) {
        if self.metrics.is_none() {
            self.metrics = Some(Arc::new(SimMetrics::new(self.spec.threads)));
        }
    }

    /// The driver-side metrics bundle, when enabled.
    pub fn metrics(&self) -> Option<&Arc<SimMetrics>> {
        self.metrics.as_ref()
    }

    /// Full halo refresh and force computation without advancing time:
    /// ghost re-selection, density, fp exchange, force phase. Required
    /// once after boot (and exactly mirrors the rebuild leg of a step).
    pub fn refresh_forces(&mut self) -> Result<(), ShardFault> {
        let start = Instant::now();
        self.rebuild_halo(vec![Vec::new(); self.shards()], false)?;
        if let Some(m) = &self.metrics {
            m.force.record(start.elapsed());
        }
        Ok(())
    }

    /// The rebuild halo leg: deliver the routed migration manifests, let
    /// the shards re-select and push full ghost exports over the mesh,
    /// then run the density/force rounds.
    fn rebuild_halo(
        &mut self,
        mut incoming: Vec<Vec<ShardAtom>>,
        kick: bool,
    ) -> Result<(), ShardFault> {
        incoming.resize(self.shards(), Vec::new());
        for (rank, link) in self.links.iter_mut().enumerate() {
            link.send(&Msg::MigIn {
                atoms: std::mem::take(&mut incoming[rank]),
            })?;
        }
        self.halo_rounds(kick)
    }

    /// The send-round barrier plus the density and force rounds shared by
    /// both legs. On entry every shard has been told to push its halo
    /// (`MigIn` or `HaloPos`); the `HaloSent` barrier guarantees every
    /// peer frame is in flight before anyone is told to receive.
    fn halo_rounds(&mut self, kick: bool) -> Result<(), ShardFault> {
        let sent = self.recv_all_waiting()?;
        for (rank, m) in sent.into_iter().enumerate() {
            match m {
                Msg::HaloSent => {}
                other => {
                    return Err(self.protocol(rank, format!("expected halo_sent, got {other:?}")))
                }
            }
        }
        self.send_all(|_| Msg::HaloDensity)?;
        let done = self.recv_all_waiting()?;
        for (rank, m) in done.into_iter().enumerate() {
            match m {
                Msg::DensityDone => {}
                other => {
                    return Err(self.protocol(rank, format!("expected density_done, got {other:?}")))
                }
            }
        }
        self.send_all(|_| Msg::HaloForce { kick })?;
        let want = self.step + u64::from(kick);
        for (rank, m) in self.recv_all_waiting()?.into_iter().enumerate() {
            match m {
                Msg::StepDone { step } if step == want => {}
                other => {
                    return Err(self.protocol(
                        rank,
                        format!("expected step_done at {want}, got {other:?}"),
                    ))
                }
            }
        }
        Ok(())
    }

    /// Advances the world one velocity-Verlet step.
    pub fn step(&mut self) -> Result<(), ShardFault> {
        let step_start = Instant::now();
        self.send_all(|_| Msg::Begin)?;
        let mut max_sq = 0.0f64;
        for (rank, m) in self.recv_all()?.into_iter().enumerate() {
            match m {
                Msg::DispOut { max_sq: d } => max_sq = max_sq.max(d),
                other => return Err(self.protocol(rank, format!("expected disp, got {other:?}"))),
            }
        }
        let integrate_elapsed = step_start.elapsed();

        if max_sq > self.limit_sq {
            let rebuild_start = Instant::now();
            self.send_all(|_| Msg::Migrate)?;
            let shards = self.shards();
            let outgoing: Vec<Vec<Vec<ShardAtom>>> = self
                .recv_all()?
                .into_iter()
                .enumerate()
                .map(|(rank, m)| match m {
                    Msg::MigOut { to } if to.len() == shards => Ok(to),
                    other => {
                        Err(self.protocol(rank, format!("expected mig_out, got {other:?}")))
                    }
                })
                .collect::<Result<_, _>>()?;
            let mut incoming: Vec<Vec<ShardAtom>> = vec![Vec::new(); shards];
            for per_target in outgoing {
                for (t, atoms) in per_target.into_iter().enumerate() {
                    self.stats.migrated += atoms.len() as u64;
                    incoming[t].extend(atoms);
                }
            }
            self.stats.rebuilds += 1;
            if let Some(m) = &self.metrics {
                m.rebuild.record(rebuild_start.elapsed());
            }
            let force_start = Instant::now();
            self.rebuild_halo(incoming, true)?;
            if let Some(m) = &self.metrics {
                m.force.record(force_start.elapsed());
            }
        } else {
            let force_start = Instant::now();
            self.send_all(|_| Msg::HaloPos)?;
            self.halo_rounds(true)?;
            if let Some(m) = &self.metrics {
                m.force.record(force_start.elapsed());
            }
        }
        self.step += 1;
        if let Some(m) = &self.metrics {
            m.integrate.record(integrate_elapsed);
            m.step.record(step_start.elapsed());
        }
        Ok(())
    }

    /// Runs `n` steps.
    pub fn run(&mut self, n: u64) -> Result<(), ShardFault> {
        for _ in 0..n {
            self.step()?;
        }
        Ok(())
    }

    /// Collects the full system state (positions and velocities by global
    /// id) from every shard.
    pub fn gather(&mut self) -> Result<(Vec<Vec3>, Vec<Vec3>), ShardFault> {
        self.send_all(|_| Msg::Gather)?;
        let mut pos = vec![None; self.n_atoms];
        let mut vel = vec![Vec3::ZERO; self.n_atoms];
        for (rank, m) in self.recv_all()?.into_iter().enumerate() {
            let atoms = match m {
                Msg::State { atoms } => atoms,
                other => return Err(self.protocol(rank, format!("expected state, got {other:?}"))),
            };
            for a in atoms {
                let gid = a.gid as usize;
                if gid >= self.n_atoms || pos[gid].is_some() {
                    return Err(self.protocol(rank, format!("bad or duplicate gid {gid}")));
                }
                pos[gid] = Some(a.pos);
                vel[gid] = a.vel;
            }
        }
        let pos = pos
            .into_iter()
            .enumerate()
            .map(|(gid, p)| p.ok_or_else(|| self.protocol(0, format!("atom {gid} lost"))))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((pos, vel))
    }

    /// Gathers into a [`System`] (for thermo reporting).
    pub fn gather_system(&mut self) -> Result<System, ShardFault> {
        let (pos, vel) = self.gather()?;
        let mut system = System::new(self.sim_box, pos, self.spec.mass);
        system.velocities_mut().copy_from_slice(&vel);
        Ok(system)
    }

    /// Saves a consistent world checkpoint generation into `dir`: every
    /// shard writes its own file, then the manifest is committed and older
    /// generations are pruned.
    pub fn save_checkpoint(&mut self, dir: &Path) -> Result<(), ShardFault> {
        std::fs::create_dir_all(dir).map_err(|error| ShardFault::Io { rank: 0, error })?;
        let dir_str = dir.to_string_lossy().into_owned();
        self.send_all(|_| Msg::Save {
            dir: dir_str.clone(),
        })?;
        for (rank, m) in self.recv_all()?.into_iter().enumerate() {
            match m {
                Msg::Saved { .. } => {}
                other => return Err(self.protocol(rank, format!("expected saved, got {other:?}"))),
            }
        }
        ckpt::commit_meta(dir, self.step, self.shards())?;
        ckpt::prune_old(dir, self.step).map_err(|error| ShardFault::Io { rank: 0, error })?;
        Ok(())
    }

    /// Fetches and merges every shard's phase timers (for the run report's
    /// `phases` section).
    pub fn merged_timers(&mut self) -> Result<PhaseTimers, ShardFault> {
        self.send_all(|_| Msg::Stats)?;
        let mut merged = PhaseTimers::new();
        for (rank, m) in self.recv_all()?.into_iter().enumerate() {
            let phases = match m {
                Msg::StatsOut { phases } => phases,
                other => {
                    return Err(self.protocol(rank, format!("expected stats_out, got {other:?}")))
                }
            };
            let mut timers = PhaseTimers::new();
            for stat in phases {
                let phase = phase_by_name(&stat.name)
                    .ok_or_else(|| self.protocol(rank, format!("unknown phase '{}'", stat.name)))?;
                if stat.count > 0 {
                    // One add carries the duration; the rest restore the
                    // sample count without changing the total.
                    timers.add(phase, Duration::from_secs_f64(stat.seconds));
                    for _ in 1..stat.count {
                        timers.add(phase, Duration::ZERO);
                    }
                }
            }
            merged.merge(&timers);
        }
        Ok(merged)
    }

    /// Polls every shard's cumulative halo counters and folds them into
    /// the driver-side stats (the halo fields are overwritten — shards
    /// report cumulative tallies, so summing them is the world total).
    fn sync_halo_stats(&mut self) -> Result<(), ShardFault> {
        self.send_all(|_| Msg::Counters)?;
        let mut total = HaloCounters::default();
        for (rank, m) in self.recv_all()?.into_iter().enumerate() {
            let c = match m {
                Msg::CountersOut { counters } => counters,
                other => {
                    return Err(
                        self.protocol(rank, format!("expected counters_out, got {other:?}"))
                    )
                }
            };
            total.ghost_sent += c.ghost_sent;
            total.ghost_installed += c.ghost_installed;
            total.bytes_sent += c.bytes_sent;
            total.bytes_recv += c.bytes_recv;
            total.wire_seconds += c.wire_seconds;
        }
        self.stats.ghost_sent = total.ghost_sent;
        self.stats.ghost_installed = total.ghost_installed;
        self.stats.wire_bytes_sent = total.bytes_sent;
        self.stats.wire_bytes_recv = total.bytes_recv;
        self.stats.wire_seconds = total.wire_seconds;
        Ok(())
    }

    /// Aggregate decomposition counters — polls the shards' halo tallies,
    /// so it needs live links.
    pub fn stats(&mut self) -> Result<ShardStats, ShardFault> {
        self.sync_halo_stats()?;
        Ok(self.stats.clone())
    }

    /// The run report's `shards` section for this world.
    pub fn shards_info(&mut self, backend: &str) -> Result<ShardsInfo, ShardFault> {
        let stats = self.stats()?;
        Ok(ShardsInfo {
            count: self.shards(),
            backend: backend.to_string(),
            ghost_sent: stats.ghost_sent,
            ghost_installed: stats.ghost_installed,
            migrated: stats.migrated,
            rebuilds: stats.rebuilds,
            wire_bytes_sent: stats.wire_bytes_sent,
            wire_bytes_recv: stats.wire_bytes_recv,
            wire_seconds: stats.wire_seconds,
            compute_wait_seconds: stats.compute_wait_seconds,
        })
    }

    /// Asks every shard to exit (errors ignored — a dead link is already
    /// the outcome shutdown wants).
    pub fn shutdown(&mut self) {
        for link in &mut self.links {
            let _ = link.send(&Msg::Shutdown);
        }
    }
}
