//! The shard message protocol: driver ↔ shard control plane plus the
//! shard ↔ shard peer frames.
//!
//! The driver speaks strict request/reply pairs on the control links; halo
//! payloads never touch it. After `Init`, the driver brokers the peer mesh
//! (listen, then connect), and from then on every step is three halo
//! rounds in which ghost data flows directly shard → shard:
//!
//! | request             | reply         | shard work |
//! |---------------------|---------------|------------|
//! | `Init`              | `Ready`       | adopt owned atoms, build layout |
//! | `PeerListen`        | `PeerBound`   | bind the peer rendezvous endpoint |
//! | `PeerConnect`       | `PeerReady`   | dial lower ranks, accept higher ranks |
//! | `Begin`             | `DispOut`     | half-kick, drift, wrap; report max displacement² |
//! | `Migrate`           | `MigOut`      | evict atoms that left the slab |
//! | `MigIn`             | `HaloSent`    | adopt arrivals, pick exports, peer-send `PeerGhosts` |
//! | `HaloPos`           | `HaloSent`    | peer-send `PeerPos` (current export positions) |
//! | `HaloDensity`       | `DensityDone` | peer-recv ghosts, install, density phase, peer-send `PeerFp` |
//! | `HaloForce`         | `StepDone`    | peer-recv `F'(ρ)`, force phase, (half-kick) |
//! | `Save`              | `Saved`       | write the per-shard checkpoint |
//! | `Gather`            | `State`       | report owned atoms |
//! | `Stats`             | `StatsOut`    | report accumulated phase timers |
//! | `Counters`          | `CountersOut` | report halo/wire counters |
//! | `Shutdown`          | —             | exit |
//!
//! Peer frames (`PeerHello`, `PeerGhosts`, `PeerPos`, `PeerFp`) ride the
//! mesh links; exactly one frame per directed pair per halo round, empty
//! or not, so the rounds stay deterministic.
//!
//! Every message has one wire form: a tag byte plus little-endian fields,
//! floats as raw `to_bits`, so it is bit-exact for every f64.
//! [`crate::codec`] frames it.

use crate::codec::CodecError;
use md_geometry::Vec3;

/// One atom on the wire: its stable global id plus position and velocity.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAtom {
    /// Global atom id (index in the unsharded system), stable for life.
    pub gid: u64,
    /// Wrapped position (global coordinates).
    pub pos: Vec3,
    /// Velocity.
    pub vel: Vec3,
}

/// Ghost export batch for one target rank: parallel `gids` / `pos` arrays
/// in the owner's deterministic export order (ascending gid).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GhostExport {
    /// Global ids of the exported atoms.
    pub gids: Vec<u64>,
    /// Their wrapped positions.
    pub pos: Vec<Vec3>,
}

/// One phase-timer sample in a `StatsOut` reply.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// Phase name (`density`, `embedding`, `force`, `neighbor`, `other`).
    pub name: String,
    /// Accumulated wall seconds.
    pub seconds: f64,
    /// Number of recorded samples.
    pub count: u64,
}

/// Cumulative halo counters of one shard (a `CountersOut` reply).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HaloCounters {
    /// Ghost position records this shard sent to peers.
    pub ghost_sent: u64,
    /// Ghost position records this shard installed from peers.
    pub ghost_installed: u64,
    /// Bytes this shard wrote to peer links (all frame types).
    pub bytes_sent: u64,
    /// Bytes this shard read from peer links.
    pub bytes_recv: u64,
    /// Wall seconds this shard spent encoding/shipping/decoding peer
    /// frames.
    pub wire_seconds: f64,
}

/// Everything a shard needs to stand up its slab.
#[derive(Debug, Clone, PartialEq)]
pub struct InitSpec {
    /// This shard's rank.
    pub rank: usize,
    /// Total number of shards.
    pub n_ranks: usize,
    /// Decomposition axis index (0 = x, 1 = y, 2 = z).
    pub axis: usize,
    /// Global (fully periodic) box edge lengths.
    pub box_lengths: [f64; 3],
    /// Potential name (`fe`, `cu`, `lj`).
    pub potential: String,
    /// Use the tabulated EAM form.
    pub tabulated: bool,
    /// Scatter strategy name (parsed by `StrategyKind::parse`).
    pub strategy: String,
    /// Worker threads per shard.
    pub threads: usize,
    /// Verlet skin (Å).
    pub skin: f64,
    /// Time step (ps).
    pub dt: f64,
    /// Atomic mass (amu).
    pub mass: f64,
    /// Step counter to resume at.
    pub step: u64,
    /// The atoms this shard owns at `step`.
    pub atoms: Vec<ShardAtom>,
}

/// A protocol message. See the module table for pairing and direction.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Msg {
    Init(Box<InitSpec>),
    Ready { rank: u64 },
    PeerListen { dir: String },
    PeerBound,
    PeerConnect,
    PeerReady,
    Begin,
    DispOut { max_sq: f64 },
    Migrate,
    MigOut { to: Vec<Vec<ShardAtom>> },
    MigIn { atoms: Vec<ShardAtom> },
    HaloPos,
    HaloSent,
    HaloDensity,
    DensityDone,
    HaloForce { kick: bool },
    StepDone { step: u64 },
    Save { dir: String },
    Saved { path: String },
    Gather,
    State { atoms: Vec<ShardAtom> },
    Stats,
    StatsOut { phases: Vec<PhaseStat> },
    Counters,
    CountersOut { counters: HaloCounters },
    Shutdown,
    // Peer frames (shard ↔ shard, never on a control link).
    PeerHello { rank: u64 },
    PeerGhosts { export: GhostExport },
    PeerPos { pos: Vec<Vec3> },
    PeerFp { fp: Vec<f64> },
}

// ---------------------------------------------------------------------------
// Wire form: [u8 tag][fields], all integers and f64 bit patterns
// little-endian, strings and vectors u32-length-prefixed. Decoding is a
// cursor walk that must consume the payload exactly — trailing bytes are a
// typed error.
// ---------------------------------------------------------------------------

mod tag {
    pub const INIT: u8 = 1;
    pub const READY: u8 = 2;
    pub const PEER_LISTEN: u8 = 3;
    pub const PEER_BOUND: u8 = 4;
    pub const PEER_CONNECT: u8 = 5;
    pub const PEER_READY: u8 = 6;
    pub const BEGIN: u8 = 7;
    pub const DISP_OUT: u8 = 8;
    pub const MIGRATE: u8 = 9;
    pub const MIG_OUT: u8 = 10;
    pub const MIG_IN: u8 = 11;
    pub const HALO_POS: u8 = 12;
    pub const HALO_SENT: u8 = 13;
    pub const HALO_DENSITY: u8 = 14;
    pub const DENSITY_DONE: u8 = 15;
    pub const HALO_FORCE: u8 = 16;
    pub const STEP_DONE: u8 = 17;
    pub const SAVE: u8 = 18;
    pub const SAVED: u8 = 19;
    pub const GATHER: u8 = 20;
    pub const STATE: u8 = 21;
    pub const STATS: u8 = 22;
    pub const STATS_OUT: u8 = 23;
    pub const COUNTERS: u8 = 24;
    pub const COUNTERS_OUT: u8 = 25;
    pub const SHUTDOWN: u8 = 26;
    pub const PEER_HELLO: u8 = 27;
    pub const PEER_GHOSTS: u8 = 28;
    pub const PEER_POS: u8 = 29;
    pub const PEER_FP: u8 = 30;
}

fn bad(what: &str) -> CodecError {
    CodecError::BadField(what.to_string())
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_bits().to_le_bytes());
}

fn put_len(out: &mut Vec<u8>, n: usize) {
    out.extend_from_slice(&(n as u32).to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

fn put_vec3(out: &mut Vec<u8>, v: Vec3) {
    put_f64(out, v.x);
    put_f64(out, v.y);
    put_f64(out, v.z);
}

fn put_vec3s(out: &mut Vec<u8>, vs: &[Vec3]) {
    put_len(out, vs.len());
    for &v in vs {
        put_vec3(out, v);
    }
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    put_len(out, xs.len());
    for &x in xs {
        put_f64(out, x);
    }
}

fn put_atoms(out: &mut Vec<u8>, atoms: &[ShardAtom]) {
    put_len(out, atoms.len());
    for a in atoms {
        put_u64(out, a.gid);
        put_vec3(out, a.pos);
        put_vec3(out, a.vel);
    }
}

fn put_export(out: &mut Vec<u8>, e: &GhostExport) {
    put_len(out, e.gids.len());
    for &g in &e.gids {
        put_u64(out, g);
    }
    put_vec3s(out, &e.pos);
}

/// Cursor over a binary payload; every read is bounds-checked and reports
/// [`CodecError::BadField`] on underrun.
struct Cur<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() - self.at < n {
            return Err(bad("payload ends mid-field"));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn usize(&mut self) -> Result<usize, CodecError> {
        let n = self.u64()?;
        usize::try_from(n).map_err(|_| bad("integer too large for usize"))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(bad(&format!("bad bool byte {other}"))),
        }
    }

    /// Reads a u32 length prefix, sanity-bounded by what the remaining
    /// payload could possibly hold (`floor` bytes per element, minimum 1).
    fn len(&mut self, per_elem: usize) -> Result<usize, CodecError> {
        let n = u32::from_le_bytes(self.take(4)?.try_into().unwrap()) as usize;
        let left = self.buf.len() - self.at;
        if n.saturating_mul(per_elem.max(1)) > left {
            return Err(bad("length prefix exceeds remaining payload"));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, CodecError> {
        let n = self.len(1)?;
        std::str::from_utf8(self.take(n)?)
            .map(str::to_string)
            .map_err(|_| bad("string field is not UTF-8"))
    }

    fn vec3(&mut self) -> Result<Vec3, CodecError> {
        Ok(Vec3::new(self.f64()?, self.f64()?, self.f64()?))
    }

    fn vec3s(&mut self) -> Result<Vec<Vec3>, CodecError> {
        let n = self.len(24)?;
        (0..n).map(|_| self.vec3()).collect()
    }

    fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.len(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn atoms(&mut self) -> Result<Vec<ShardAtom>, CodecError> {
        let n = self.len(56)?;
        (0..n)
            .map(|_| {
                Ok(ShardAtom {
                    gid: self.u64()?,
                    pos: self.vec3()?,
                    vel: self.vec3()?,
                })
            })
            .collect()
    }

    fn export(&mut self) -> Result<GhostExport, CodecError> {
        let n = self.len(8)?;
        let gids = (0..n).map(|_| self.u64()).collect::<Result<Vec<_>, _>>()?;
        let pos = self.vec3s()?;
        if gids.len() != pos.len() {
            return Err(bad("ghost export gid/pos length mismatch"));
        }
        Ok(GhostExport { gids, pos })
    }
}

impl Msg {
    /// Renders the message as its payload body (unframed).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Init(s) => {
                out.push(tag::INIT);
                put_u64(&mut out, s.rank as u64);
                put_u64(&mut out, s.n_ranks as u64);
                put_u64(&mut out, s.axis as u64);
                for &l in &s.box_lengths {
                    put_f64(&mut out, l);
                }
                put_str(&mut out, &s.potential);
                out.push(u8::from(s.tabulated));
                put_str(&mut out, &s.strategy);
                put_u64(&mut out, s.threads as u64);
                put_f64(&mut out, s.skin);
                put_f64(&mut out, s.dt);
                put_f64(&mut out, s.mass);
                put_u64(&mut out, s.step);
                put_atoms(&mut out, &s.atoms);
            }
            Msg::Ready { rank } => {
                out.push(tag::READY);
                put_u64(&mut out, *rank);
            }
            Msg::PeerListen { dir } => {
                out.push(tag::PEER_LISTEN);
                put_str(&mut out, dir);
            }
            Msg::PeerBound => out.push(tag::PEER_BOUND),
            Msg::PeerConnect => out.push(tag::PEER_CONNECT),
            Msg::PeerReady => out.push(tag::PEER_READY),
            Msg::Begin => out.push(tag::BEGIN),
            Msg::DispOut { max_sq } => {
                out.push(tag::DISP_OUT);
                put_f64(&mut out, *max_sq);
            }
            Msg::Migrate => out.push(tag::MIGRATE),
            Msg::MigOut { to } => {
                out.push(tag::MIG_OUT);
                put_len(&mut out, to.len());
                for atoms in to {
                    put_atoms(&mut out, atoms);
                }
            }
            Msg::MigIn { atoms } => {
                out.push(tag::MIG_IN);
                put_atoms(&mut out, atoms);
            }
            Msg::HaloPos => out.push(tag::HALO_POS),
            Msg::HaloSent => out.push(tag::HALO_SENT),
            Msg::HaloDensity => out.push(tag::HALO_DENSITY),
            Msg::DensityDone => out.push(tag::DENSITY_DONE),
            Msg::HaloForce { kick } => {
                out.push(tag::HALO_FORCE);
                out.push(u8::from(*kick));
            }
            Msg::StepDone { step } => {
                out.push(tag::STEP_DONE);
                put_u64(&mut out, *step);
            }
            Msg::Save { dir } => {
                out.push(tag::SAVE);
                put_str(&mut out, dir);
            }
            Msg::Saved { path } => {
                out.push(tag::SAVED);
                put_str(&mut out, path);
            }
            Msg::Gather => out.push(tag::GATHER),
            Msg::State { atoms } => {
                out.push(tag::STATE);
                put_atoms(&mut out, atoms);
            }
            Msg::Stats => out.push(tag::STATS),
            Msg::StatsOut { phases } => {
                out.push(tag::STATS_OUT);
                put_len(&mut out, phases.len());
                for p in phases {
                    put_str(&mut out, &p.name);
                    put_f64(&mut out, p.seconds);
                    put_u64(&mut out, p.count);
                }
            }
            Msg::Counters => out.push(tag::COUNTERS),
            Msg::CountersOut { counters: c } => {
                out.push(tag::COUNTERS_OUT);
                put_u64(&mut out, c.ghost_sent);
                put_u64(&mut out, c.ghost_installed);
                put_u64(&mut out, c.bytes_sent);
                put_u64(&mut out, c.bytes_recv);
                put_f64(&mut out, c.wire_seconds);
            }
            Msg::Shutdown => out.push(tag::SHUTDOWN),
            Msg::PeerHello { rank } => {
                out.push(tag::PEER_HELLO);
                put_u64(&mut out, *rank);
            }
            Msg::PeerGhosts { export } => {
                out.push(tag::PEER_GHOSTS);
                put_export(&mut out, export);
            }
            Msg::PeerPos { pos } => {
                out.push(tag::PEER_POS);
                put_vec3s(&mut out, pos);
            }
            Msg::PeerFp { fp } => {
                out.push(tag::PEER_FP);
                put_f64s(&mut out, fp);
            }
        }
        out
    }

    /// Parses a message from its payload body. The body must hold exactly
    /// one message; leftover bytes are a [`CodecError::BadField`].
    pub fn decode(body: &[u8]) -> Result<Msg, CodecError> {
        let mut c = Cur { buf: body, at: 0 };
        let msg = match c.u8()? {
            tag::INIT => {
                let rank = c.usize()?;
                let n_ranks = c.usize()?;
                let axis = c.usize()?;
                let box_lengths = [c.f64()?, c.f64()?, c.f64()?];
                let potential = c.str()?;
                let tabulated = c.bool()?;
                let strategy = c.str()?;
                let threads = c.usize()?;
                let skin = c.f64()?;
                let dt = c.f64()?;
                let mass = c.f64()?;
                let step = c.u64()?;
                let atoms = c.atoms()?;
                Msg::Init(Box::new(InitSpec {
                    rank,
                    n_ranks,
                    axis,
                    box_lengths,
                    potential,
                    tabulated,
                    strategy,
                    threads,
                    skin,
                    dt,
                    mass,
                    step,
                    atoms,
                }))
            }
            tag::READY => Msg::Ready { rank: c.u64()? },
            tag::PEER_LISTEN => Msg::PeerListen { dir: c.str()? },
            tag::PEER_BOUND => Msg::PeerBound,
            tag::PEER_CONNECT => Msg::PeerConnect,
            tag::PEER_READY => Msg::PeerReady,
            tag::BEGIN => Msg::Begin,
            tag::DISP_OUT => Msg::DispOut { max_sq: c.f64()? },
            tag::MIGRATE => Msg::Migrate,
            tag::MIG_OUT => {
                let n = c.len(4)?;
                let to = (0..n).map(|_| c.atoms()).collect::<Result<Vec<_>, _>>()?;
                Msg::MigOut { to }
            }
            tag::MIG_IN => Msg::MigIn { atoms: c.atoms()? },
            tag::HALO_POS => Msg::HaloPos,
            tag::HALO_SENT => Msg::HaloSent,
            tag::HALO_DENSITY => Msg::HaloDensity,
            tag::DENSITY_DONE => Msg::DensityDone,
            tag::HALO_FORCE => Msg::HaloForce { kick: c.bool()? },
            tag::STEP_DONE => Msg::StepDone { step: c.u64()? },
            tag::SAVE => Msg::Save { dir: c.str()? },
            tag::SAVED => Msg::Saved { path: c.str()? },
            tag::GATHER => Msg::Gather,
            tag::STATE => Msg::State { atoms: c.atoms()? },
            tag::STATS => Msg::Stats,
            tag::STATS_OUT => {
                let n = c.len(17)?;
                let phases = (0..n)
                    .map(|_| {
                        Ok(PhaseStat {
                            name: c.str()?,
                            seconds: c.f64()?,
                            count: c.u64()?,
                        })
                    })
                    .collect::<Result<Vec<_>, CodecError>>()?;
                Msg::StatsOut { phases }
            }
            tag::COUNTERS => Msg::Counters,
            tag::COUNTERS_OUT => Msg::CountersOut {
                counters: HaloCounters {
                    ghost_sent: c.u64()?,
                    ghost_installed: c.u64()?,
                    bytes_sent: c.u64()?,
                    bytes_recv: c.u64()?,
                    wire_seconds: c.f64()?,
                },
            },
            tag::SHUTDOWN => Msg::Shutdown,
            tag::PEER_HELLO => Msg::PeerHello { rank: c.u64()? },
            tag::PEER_GHOSTS => Msg::PeerGhosts { export: c.export()? },
            tag::PEER_POS => Msg::PeerPos { pos: c.vec3s()? },
            tag::PEER_FP => Msg::PeerFp { fp: c.f64s()? },
            other => return Err(bad(&format!("unknown message tag {other}"))),
        };
        if c.at != body.len() {
            return Err(bad(&format!(
                "trailing bytes after message ({} of {} consumed)",
                c.at,
                body.len()
            )));
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec;

    fn atom(gid: u64) -> ShardAtom {
        ShardAtom {
            gid,
            pos: Vec3::new(1.5, -0.0, 3.25e-7),
            vel: Vec3::new(-2.5, 0.125, 9.0),
        }
    }

    fn sample_msgs() -> Vec<Msg> {
        vec![
            Msg::Init(Box::new(InitSpec {
                rank: 1,
                n_ranks: 2,
                axis: 0,
                box_lengths: [10.0, 11.0, 12.0],
                potential: "fe".to_string(),
                tabulated: false,
                strategy: "sdc2d".to_string(),
                threads: 2,
                skin: 0.3,
                dt: 0.002,
                mass: 55.845,
                step: 7,
                atoms: vec![atom(0), atom(5)],
            })),
            Msg::Ready { rank: 1 },
            Msg::PeerListen { dir: "/tmp/mesh".to_string() },
            Msg::PeerBound,
            Msg::PeerConnect,
            Msg::PeerReady,
            Msg::Begin,
            Msg::DispOut { max_sq: 0.015625 },
            Msg::Migrate,
            Msg::MigOut {
                to: vec![vec![], vec![atom(3)]],
            },
            Msg::MigIn { atoms: vec![atom(9)] },
            Msg::HaloPos,
            Msg::HaloSent,
            Msg::HaloDensity,
            Msg::DensityDone,
            Msg::HaloForce { kick: true },
            Msg::StepDone { step: 8 },
            Msg::Save { dir: "/tmp/x".to_string() },
            Msg::Saved { path: "/tmp/x/shard-0@8.ckpt".to_string() },
            Msg::Gather,
            Msg::State { atoms: vec![atom(1)] },
            Msg::Stats,
            Msg::StatsOut {
                phases: vec![PhaseStat {
                    name: "force".to_string(),
                    seconds: 0.25,
                    count: 12,
                }],
            },
            Msg::Counters,
            Msg::CountersOut {
                counters: HaloCounters {
                    ghost_sent: 10,
                    ghost_installed: 10,
                    bytes_sent: 4096,
                    bytes_recv: 2048,
                    wire_seconds: 0.125,
                },
            },
            Msg::Shutdown,
            Msg::PeerHello { rank: 3 },
            Msg::PeerGhosts {
                export: GhostExport {
                    gids: vec![2, 4],
                    pos: vec![Vec3::ONE, Vec3::ZERO],
                },
            },
            Msg::PeerPos {
                pos: vec![Vec3::new(0.1, 0.2, 0.3)],
            },
            Msg::PeerFp { fp: vec![1.0, -2.5e-3, f64::NAN] },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for m in sample_msgs() {
            let bytes = codec::encode(&m);
            let (back, used) = codec::decode(&bytes).unwrap();
            assert_eq!(used, bytes.len());
            // NaN breaks PartialEq; compare the wire forms, which carry
            // exact bit patterns.
            assert_eq!(back.encode(), m.encode(), "round trip failed for {m:?}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut body = Msg::Begin.encode();
        body.push(0);
        assert!(matches!(Msg::decode(&body), Err(CodecError::BadField(_))));
    }

    #[test]
    fn length_prefix_cannot_overrun() {
        // A PeerFp claiming 2^32-1 floats in a 20-byte payload must be a
        // typed error, not an allocation attempt.
        let mut body = vec![30u8]; // PEER_FP
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        body.extend_from_slice(&[0u8; 15]);
        assert!(matches!(Msg::decode(&body), Err(CodecError::BadField(_))));
    }

    #[test]
    fn unknown_tags_and_missing_fields_are_typed_errors() {
        for body in [&[200u8][..], &[], &[tag::DISP_OUT]] {
            assert!(
                matches!(Msg::decode(body), Err(CodecError::BadField(_))),
                "{body:?}"
            );
        }
    }
}
