//! The peer mesh: direct shard ↔ shard halo links, brokered by the driver
//! at boot and untouched by it afterwards.
//!
//! Halo rounds are phase-synchronous (the driver's control round-trips
//! provide the barrier), so the mesh API is round-shaped: one frame to
//! every peer ([`PeerMesh::send_peers`]), one frame from every peer
//! ([`PeerMesh::recv_peers`]). Exactly one frame per directed pair per
//! round — empty exports still ship a frame — keeps reception
//! deterministic without any tagging.
//!
//! Two implementations:
//!
//! * [`ChannelMesh`] — virtual ranks: an mpsc channel per directed pair.
//!   Frames still pass through the real [`codec`], so the conformance
//!   battery exercises the exact bytes the process backend ships.
//! * [`SocketMesh`] — one Unix-domain stream per unordered pair, driven
//!   by a nonblocking pump that writes each link's outbox and drains its
//!   inbox. A send only queues its frames and pumps once; the receive
//!   that follows it in the next driver round keeps pumping until every
//!   outbox is empty and every inbox holds a frame. A frame larger than
//!   the kernel buffer therefore finishes while its peer is receiving,
//!   even if that peer's own send finished long before, and fp frames
//!   arriving early (peers that finished their density pass first — the
//!   overlap the density/force split enables) wait in the inbox.
//!
//! Construction is two-phase to dodge the connect/accept race: every rank
//! binds its rendezvous endpoint first (`PeerListen` round), then every
//! rank dials all lower ranks and accepts all higher ones (`PeerConnect`
//! round). A dial lands in the listener's backlog even before the peer
//! accepts, so the serial dial-then-accept order cannot deadlock.

use crate::codec::{self, frame_len};
use crate::msg::{HaloCounters, Msg};
use std::io::{ErrorKind, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::time::{Duration, Instant};

/// Direct links to every other shard, used inside the halo rounds.
pub trait PeerMesh: Send {
    /// Sends one message to every peer; `out[r]` is `None` exactly for
    /// `r == self_rank`.
    fn send_peers(&mut self, out: Vec<Option<Msg>>) -> Result<(), String>;
    /// Receives one message from every peer, slot per rank (`None` at the
    /// own rank).
    fn recv_peers(&mut self) -> Result<Vec<Option<Msg>>, String>;
    /// Cumulative wire counters (bytes both ways, wall seconds spent in
    /// encode/ship/decode).
    fn wire(&self) -> (u64, u64, f64);
}

/// Hands a [`PeerMesh`] to the shard core when the driver's brokering
/// rounds arrive: `listen` on `PeerListen`, `connect` on `PeerConnect`.
pub trait MeshProvider: Send {
    /// Binds the rendezvous endpoint (no-op for virtual ranks).
    fn listen(&mut self, rank: usize, n_ranks: usize, dir: &str) -> Result<(), String>;
    /// Establishes every peer link and returns the mesh.
    fn connect(&mut self, rank: usize, n_ranks: usize) -> Result<Box<dyn PeerMesh>, String>;
}

// ---------------------------------------------------------------------------
// Virtual ranks: mpsc channels.
// ---------------------------------------------------------------------------

/// The virtual-rank mesh: one mpsc channel per directed pair, carrying
/// complete frames.
pub struct ChannelMesh {
    rank: usize,
    tx: Vec<Option<Sender<Vec<u8>>>>,
    rx: Vec<Option<Receiver<Vec<u8>>>>,
    bytes_sent: u64,
    bytes_recv: u64,
    wire_seconds: f64,
}

/// Builds the fully wired mesh set for `n` virtual ranks.
pub fn channel_mesh_set(n: usize) -> Vec<ChannelMesh> {
    let mut meshes: Vec<ChannelMesh> = (0..n)
        .map(|rank| ChannelMesh {
            rank,
            tx: (0..n).map(|_| None).collect(),
            rx: (0..n).map(|_| None).collect(),
            bytes_sent: 0,
            bytes_recv: 0,
            wire_seconds: 0.0,
        })
        .collect();
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            let (tx, rx) = channel();
            meshes[s].tx[t] = Some(tx);
            meshes[t].rx[s] = Some(rx);
        }
    }
    meshes
}

impl PeerMesh for ChannelMesh {
    fn send_peers(&mut self, out: Vec<Option<Msg>>) -> Result<(), String> {
        if out.len() != self.tx.len() {
            return Err("peer send arity mismatch".to_string());
        }
        let start = Instant::now();
        for (t, msg) in out.into_iter().enumerate() {
            let Some(msg) = msg else { continue };
            let tx = self.tx[t]
                .as_ref()
                .ok_or_else(|| format!("no peer link to rank {t}"))?;
            let bytes = codec::encode(&msg);
            self.bytes_sent += bytes.len() as u64;
            tx.send(bytes)
                .map_err(|_| format!("peer {t} hung up (channel closed)"))?;
        }
        self.wire_seconds += start.elapsed().as_secs_f64();
        Ok(())
    }

    fn recv_peers(&mut self) -> Result<Vec<Option<Msg>>, String> {
        let start = Instant::now();
        let mut got = Vec::with_capacity(self.rx.len());
        for (s, rx) in self.rx.iter().enumerate() {
            let Some(rx) = rx else {
                got.push(None);
                continue;
            };
            // The driver's control round is the barrier: peers sent their
            // frames before this shard was told to receive, so an empty
            // channel is a protocol-phase violation, not a wait.
            let bytes = match rx.try_recv() {
                Ok(b) => b,
                Err(TryRecvError::Empty) => {
                    return Err(format!("no frame queued from rank {s} (phase violation)"))
                }
                Err(TryRecvError::Disconnected) => {
                    return Err(format!("peer {s} hung up (channel closed)"))
                }
            };
            self.bytes_recv += bytes.len() as u64;
            let (msg, used) =
                codec::decode(&bytes).map_err(|e| format!("bad peer frame from rank {s}: {e}"))?;
            if used != bytes.len() {
                return Err(format!("peer frame from rank {s} has trailing bytes"));
            }
            got.push(Some(msg));
        }
        self.wire_seconds += start.elapsed().as_secs_f64();
        Ok(got)
    }

    fn wire(&self) -> (u64, u64, f64) {
        (self.bytes_sent, self.bytes_recv, self.wire_seconds)
    }
}

/// The provider the virtual backend installs: the mesh is pre-wired by
/// [`channel_mesh_set`], so `connect` just hands it over.
pub struct ChannelMeshProvider {
    mesh: Option<ChannelMesh>,
}

impl ChannelMeshProvider {
    /// Wraps one pre-wired mesh.
    pub fn new(mesh: ChannelMesh) -> ChannelMeshProvider {
        ChannelMeshProvider { mesh: Some(mesh) }
    }
}

impl MeshProvider for ChannelMeshProvider {
    fn listen(&mut self, rank: usize, n_ranks: usize, _dir: &str) -> Result<(), String> {
        let mesh = self.mesh.as_ref().ok_or("mesh already taken")?;
        if mesh.rank != rank || mesh.tx.len() != n_ranks {
            return Err(format!(
                "mesh wired for rank {}/{}, asked for {rank}/{n_ranks}",
                mesh.rank,
                mesh.tx.len()
            ));
        }
        Ok(())
    }

    fn connect(&mut self, _rank: usize, _n_ranks: usize) -> Result<Box<dyn PeerMesh>, String> {
        self.mesh
            .take()
            .map(|m| Box::new(m) as Box<dyn PeerMesh>)
            .ok_or_else(|| "mesh already taken".to_string())
    }
}

// ---------------------------------------------------------------------------
// Process backend: Unix-domain streams with a nonblocking pump.
// ---------------------------------------------------------------------------

const PUMP_IDLE: Duration = Duration::from_micros(100);
const MESH_DEADLINE: Duration = Duration::from_secs(30);

struct PeerLink {
    stream: UnixStream,
    /// Encoded frames the kernel has not taken yet.
    outbox: Vec<u8>,
    /// Bytes read off the stream but not yet consumed as frames.
    inbox: Vec<u8>,
}

impl PeerLink {
    fn new(stream: UnixStream) -> PeerLink {
        PeerLink {
            stream,
            outbox: Vec::new(),
            inbox: Vec::new(),
        }
    }
}

/// The process-backend mesh: one stream per unordered rank pair.
pub struct SocketMesh {
    links: Vec<Option<PeerLink>>,
    bytes_sent: u64,
    bytes_recv: u64,
    wire_seconds: f64,
}

fn io_closed(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::UnexpectedEof
            | ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::NotConnected
    )
}

impl SocketMesh {
    /// Writes what the kernel will take of `link`'s outbox, then drains
    /// whatever its stream has ready into its inbox, without blocking.
    /// Returns whether any byte moved; `Err` on peer death.
    fn pump(link: &mut PeerLink, peer: usize) -> Result<bool, String> {
        let mut moved = false;
        while !link.outbox.is_empty() {
            match link.stream.write(&link.outbox) {
                Ok(n) => {
                    link.outbox.drain(..n);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if io_closed(e.kind()) => return Err(format!("peer {peer} link died: {e}")),
                Err(e) => return Err(format!("peer {peer} write error: {e}")),
            }
        }
        let mut buf = [0u8; 64 * 1024];
        loop {
            match link.stream.read(&mut buf) {
                Ok(0) => return Err(format!("peer {peer} closed its link")),
                Ok(n) => {
                    link.inbox.extend_from_slice(&buf[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(moved),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if io_closed(e.kind()) => return Err(format!("peer {peer} link died: {e}")),
                Err(e) => return Err(format!("peer {peer} read error: {e}")),
            }
        }
    }

    /// Whether `link` has nothing left to send and one complete frame to
    /// receive.
    fn settled(link: &PeerLink, peer: usize) -> Result<bool, String> {
        if !link.outbox.is_empty() {
            return Ok(false);
        }
        match frame_len(&link.inbox) {
            None => Ok(false),
            Some(Err(e)) => Err(format!("peer {peer} sent a bad frame: {e}")),
            Some(Ok(total)) => Ok(link.inbox.len() >= total),
        }
    }
}

impl PeerMesh for SocketMesh {
    fn send_peers(&mut self, out: Vec<Option<Msg>>) -> Result<(), String> {
        if out.len() != self.links.len() {
            return Err("peer send arity mismatch".to_string());
        }
        let start = Instant::now();
        for (t, msg) in out.into_iter().enumerate() {
            let Some(msg) = msg else { continue };
            let link = self.links[t]
                .as_mut()
                .ok_or_else(|| format!("no peer link to rank {t}"))?;
            let bytes = codec::encode(&msg);
            self.bytes_sent += bytes.len() as u64;
            link.outbox.extend_from_slice(&bytes);
            Self::pump(link, t)?;
        }
        self.wire_seconds += start.elapsed().as_secs_f64();
        Ok(())
    }

    fn recv_peers(&mut self) -> Result<Vec<Option<Msg>>, String> {
        let start = Instant::now();
        let deadline = Instant::now() + MESH_DEADLINE;
        loop {
            let mut settled = true;
            let mut moved = false;
            for (s, link) in self.links.iter_mut().enumerate() {
                let Some(link) = link else { continue };
                if Self::settled(link, s)? {
                    continue;
                }
                moved |= Self::pump(link, s)?;
                settled &= Self::settled(link, s)?;
            }
            if settled {
                break;
            }
            if !moved {
                if Instant::now() > deadline {
                    return Err("peer exchange stalled past deadline".to_string());
                }
                std::thread::sleep(PUMP_IDLE);
            }
        }
        let mut got = Vec::with_capacity(self.links.len());
        for (s, link) in self.links.iter_mut().enumerate() {
            let Some(link) = link else {
                got.push(None);
                continue;
            };
            let (msg, used) = codec::decode(&link.inbox)
                .map_err(|e| format!("bad peer frame from rank {s}: {e}"))?;
            link.inbox.drain(..used);
            self.bytes_recv += used as u64;
            got.push(Some(msg));
        }
        self.wire_seconds += start.elapsed().as_secs_f64();
        Ok(got)
    }

    fn wire(&self) -> (u64, u64, f64) {
        (self.bytes_sent, self.bytes_recv, self.wire_seconds)
    }
}

/// Rendezvous path of one rank's peer listener inside the shared socket
/// directory.
pub fn peer_sock_path(dir: &str, rank: usize) -> PathBuf {
    PathBuf::from(dir).join(format!("peer-{rank}.sock"))
}

/// The provider the `mdshard-worker` binary installs: binds a listener on
/// `PeerListen`, dials lower ranks / accepts higher ranks on
/// `PeerConnect`, identifying inbound streams by their `PeerHello`.
#[derive(Default)]
pub struct SocketMeshProvider {
    listener: Option<UnixListener>,
    dir: Option<String>,
}

impl MeshProvider for SocketMeshProvider {
    fn listen(&mut self, rank: usize, _n_ranks: usize, dir: &str) -> Result<(), String> {
        let path = peer_sock_path(dir, rank);
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)
            .map_err(|e| format!("bind {}: {e}", path.display()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener nonblocking: {e}"))?;
        self.listener = Some(listener);
        self.dir = Some(dir.to_string());
        Ok(())
    }

    fn connect(&mut self, rank: usize, n_ranks: usize) -> Result<Box<dyn PeerMesh>, String> {
        let listener = self.listener.take().ok_or("connect before listen")?;
        let dir = self.dir.clone().ok_or("connect before listen")?;
        let mut links: Vec<Option<PeerLink>> = (0..n_ranks).map(|_| None).collect();
        // Dial every lower rank (their listeners are bound — the driver's
        // PeerListen round completed) and introduce ourselves.
        for (s, link) in links.iter_mut().enumerate().take(rank) {
            let path = peer_sock_path(&dir, s);
            let mut stream = UnixStream::connect(&path)
                .map_err(|e| format!("dial rank {s} at {}: {e}", path.display()))?;
            codec::write_msg(&mut stream, &Msg::PeerHello { rank: rank as u64 })
                .map_err(|e| format!("hello to rank {s}: {e}"))?;
            stream
                .set_nonblocking(true)
                .map_err(|e| format!("peer stream nonblocking: {e}"))?;
            *link = Some(PeerLink::new(stream));
        }
        // Accept every higher rank, identified by its hello.
        let expect = n_ranks - rank - 1;
        let deadline = Instant::now() + MESH_DEADLINE;
        let mut accepted = 0;
        while accepted < expect {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    stream
                        .set_nonblocking(false)
                        .map_err(|e| format!("peer stream blocking: {e}"))?;
                    let hello =
                        codec::read_msg(&mut stream).map_err(|e| format!("peer hello: {e}"))?;
                    let from = match hello {
                        Msg::PeerHello { rank: r } => r as usize,
                        other => return Err(format!("expected peer hello, got {other:?}")),
                    };
                    if from <= rank || from >= n_ranks || links[from].is_some() {
                        return Err(format!("bad or duplicate peer hello from rank {from}"));
                    }
                    stream
                        .set_nonblocking(true)
                        .map_err(|e| format!("peer stream nonblocking: {e}"))?;
                    links[from] = Some(PeerLink::new(stream));
                    accepted += 1;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err(format!(
                            "peer mesh rendezvous timed out ({accepted}/{expect} accepted)"
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("peer accept: {e}")),
            }
        }
        let _ = std::fs::remove_file(peer_sock_path(&dir, rank));
        Ok(Box::new(SocketMesh {
            links,
            bytes_sent: 0,
            bytes_recv: 0,
            wire_seconds: 0.0,
        }))
    }
}

/// Accumulates a mesh's wire counters plus the core's ghost tallies into
/// the [`HaloCounters`] wire shape.
pub fn halo_counters(
    mesh: Option<&dyn PeerMesh>,
    ghost_sent: u64,
    ghost_installed: u64,
) -> HaloCounters {
    let (bytes_sent, bytes_recv, wire_seconds) = mesh.map_or((0, 0, 0.0), |m| m.wire());
    HaloCounters {
        ghost_sent,
        ghost_installed,
        bytes_sent,
        bytes_recv,
        wire_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_geometry::Vec3;
    use std::sync::{Arc, Barrier};

    #[test]
    fn channel_mesh_routes_frames_between_ranks() {
        let mut set = channel_mesh_set(3);
        let mut m2 = set.pop().unwrap();
        let mut m1 = set.pop().unwrap();
        let mut m0 = set.pop().unwrap();
        m0.send_peers(vec![
            None,
            Some(Msg::PeerPos { pos: vec![Vec3::ONE] }),
            Some(Msg::PeerPos { pos: vec![] }),
        ])
        .unwrap();
        m1.send_peers(vec![Some(Msg::PeerFp { fp: vec![2.0] }), None, Some(Msg::PeerFp { fp: vec![] })])
            .unwrap();
        m2.send_peers(vec![
            Some(Msg::PeerPos { pos: vec![] }),
            Some(Msg::PeerPos { pos: vec![] }),
            None,
        ])
        .unwrap();
        let at0 = m0.recv_peers().unwrap();
        assert!(at0[0].is_none());
        assert_eq!(at0[1], Some(Msg::PeerFp { fp: vec![2.0] }));
        assert_eq!(at0[2], Some(Msg::PeerPos { pos: vec![] }));
        let at1 = m1.recv_peers().unwrap();
        assert_eq!(at1[0], Some(Msg::PeerPos { pos: vec![Vec3::ONE] }));
        let (sent, recvd, secs) = m0.wire();
        assert!(sent > 0 && recvd > 0 && secs >= 0.0);
    }

    #[test]
    fn empty_channel_is_a_phase_violation() {
        let mut set = channel_mesh_set(2);
        let mut m0 = set.remove(0);
        assert!(m0.recv_peers().is_err());
    }

    /// Connected socket meshes of ranks 0 and 1, rendezvousing in a fresh
    /// directory named after `label`.
    fn socket_pair(label: &str) -> (Box<dyn PeerMesh>, Box<dyn PeerMesh>, PathBuf) {
        let dir = std::env::temp_dir()
            .join(format!("mdshard-mesh-{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_string_lossy().into_owned();
        let mut p0 = SocketMeshProvider::default();
        let mut p1 = SocketMeshProvider::default();
        p0.listen(0, 2, &dir_str).unwrap();
        p1.listen(1, 2, &dir_str).unwrap();
        let accept = std::thread::spawn(move || p0.connect(0, 2).unwrap());
        let m1 = p1.connect(1, 2).unwrap();
        (accept.join().unwrap(), m1, dir)
    }

    /// A position frame of `n` atoms, 24 bytes each on the wire.
    fn positions(n: usize) -> Vec<Vec3> {
        (0..n).map(|i| Vec3::new(i as f64, 0.5, -1.0)).collect()
    }

    #[test]
    fn socket_mesh_full_duplex_survives_large_frames() {
        // Two ranks exchange frames far larger than a socket buffer in the
        // same round; the pump must interleave reads and writes.
        let (mut m0, mut m1, dir) = socket_pair("duplex");
        let big = positions(40_000);
        let big0 = big.clone();
        // The thread hands its mesh back, so no link closes before both
        // sides have received.
        let t = std::thread::spawn(move || {
            m0.send_peers(vec![None, Some(Msg::PeerPos { pos: big0.clone() })])
                .unwrap();
            let got = m0.recv_peers().unwrap();
            assert_eq!(got[1], Some(Msg::PeerPos { pos: big0 }));
            m0
        });
        m1.send_peers(vec![Some(Msg::PeerPos { pos: big.clone() }), None])
            .unwrap();
        let got = m1.recv_peers().unwrap();
        assert_eq!(got[0], Some(Msg::PeerPos { pos: big }));
        t.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_frame_larger_than_the_socket_buffer_drains_while_its_peer_waits() {
        // Rank 1's send is tiny and done at once; it then waits on the
        // driver without reading (the barrier stands in for the
        // `HaloSent` round). Rank 0's ~960 KB frame does not fit in the
        // kernel buffer, so rank 0's send must return with the rest
        // queued, and the receive round after the barrier must flush it.
        let (mut m0, mut m1, dir) = socket_pair("stall");
        let big = positions(40_000);
        let barrier = Arc::new(Barrier::new(2));
        let (b0, big0) = (Arc::clone(&barrier), big.clone());
        let t = std::thread::spawn(move || {
            let sent = m0.send_peers(vec![None, Some(Msg::PeerPos { pos: big0 })]);
            b0.wait();
            sent.unwrap();
            let got = m0.recv_peers().unwrap();
            assert_eq!(got[1], Some(Msg::PeerPos { pos: vec![] }));
            m0
        });
        m1.send_peers(vec![Some(Msg::PeerPos { pos: vec![] }), None])
            .unwrap();
        barrier.wait();
        let got = m1.recv_peers().unwrap();
        assert_eq!(got[0], Some(Msg::PeerPos { pos: big }));
        t.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
