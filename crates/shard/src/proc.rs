//! The process backend: one `mdshard-worker` per shard over Unix-domain
//! sockets.
//!
//! The driver binds one listener per rank, spawns the worker with
//! `--connect <socket> --rank <r>`, and wraps the accepted stream in a
//! [`SocketTransport`]. The control link only boots the worker and
//! carries the step schedule; halo payloads flow over the peer mesh the
//! workers wire among themselves during the boot rounds (rendezvous
//! sockets share `sock_dir`). Because the driver sends a whole round of
//! requests before collecting replies, the workers compute their phases
//! concurrently — this backend is where sharding buys real parallelism.
//!
//! A worker that dies (crash, `kill -9`) surfaces as
//! [`ShardFault::TransportClosed`] on its link at the next send or
//! receive: Rust ignores `SIGPIPE`, so a write to the dead socket returns
//! `BrokenPipe` and a read returns a clean EOF, both mapped to the typed
//! fault. The driver can then resume the whole world from the last
//! committed checkpoint generation via [`ProcessWorld::resume`].

use crate::codec::{self, Codec, CodecError};
use crate::msg::Msg;
use crate::world::{ShardWorld, Transport, WorldSpec};
use crate::ShardFault;
use md_geometry::SimBox;
use md_sim::System;
use std::io::ErrorKind;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A driver ↔ worker link over a Unix-domain socket.
pub struct SocketTransport {
    rank: usize,
    stream: UnixStream,
}

fn is_closed(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::UnexpectedEof
            | ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::NotConnected
    )
}

impl SocketTransport {
    /// Wraps an accepted stream for `rank`.
    pub fn new(rank: usize, stream: UnixStream) -> SocketTransport {
        SocketTransport { rank, stream }
    }

    fn fault(&self, error: CodecError) -> ShardFault {
        match error {
            CodecError::Truncated => ShardFault::TransportClosed { rank: self.rank },
            CodecError::Io(e) if is_closed(e.kind()) => {
                ShardFault::TransportClosed { rank: self.rank }
            }
            CodecError::Io(e) => ShardFault::Io {
                rank: self.rank,
                error: e,
            },
            other => ShardFault::Codec {
                rank: self.rank,
                error: other,
            },
        }
    }
}

impl Transport for SocketTransport {
    fn send(&mut self, msg: &Msg) -> Result<(), ShardFault> {
        codec::write_msg(&mut self.stream, msg).map_err(|e| self.fault(e))
    }

    fn recv(&mut self) -> Result<Msg, ShardFault> {
        codec::read_msg(&mut self.stream).map_err(|e| self.fault(e))
    }
}

/// A [`ShardWorld`] whose shards are worker processes. Dereferences to the
/// world for stepping, gathering and checkpointing.
pub struct ProcessWorld {
    world: ShardWorld,
    children: Vec<Child>,
}

/// Transports and child handles of a freshly spawned worker fleet.
type SpawnedWorkers = (Vec<Box<dyn Transport>>, Vec<Child>);

fn spawn_workers(
    worker: &Path,
    shards: usize,
    sock_dir: &Path,
) -> Result<SpawnedWorkers, ShardFault> {
    std::fs::create_dir_all(sock_dir).map_err(|error| ShardFault::Io { rank: 0, error })?;
    let mut links: Vec<Box<dyn Transport>> = Vec::with_capacity(shards);
    let mut children = Vec::with_capacity(shards);
    for rank in 0..shards {
        match spawn_one(worker, rank, sock_dir) {
            Ok((link, child)) => {
                links.push(Box::new(link));
                children.push(child);
            }
            Err(fault) => {
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                return Err(fault);
            }
        }
    }
    Ok((links, children))
}

fn spawn_one(
    worker: &Path,
    rank: usize,
    sock_dir: &Path,
) -> Result<(SocketTransport, Child), ShardFault> {
    let sock = sock_dir.join(format!("shard-{rank}.sock"));
    let _ = std::fs::remove_file(&sock);
    let io_fault = |error| ShardFault::Io { rank, error };
    let listener = UnixListener::bind(&sock).map_err(io_fault)?;
    listener.set_nonblocking(true).map_err(io_fault)?;
    let mut child = Command::new(worker)
        .arg("--connect")
        .arg(&sock)
        .arg("--rank")
        .arg(rank.to_string())
        .stdin(Stdio::null())
        .spawn()
        .map_err(|e| ShardFault::WorkerExit {
            rank,
            status: format!("spawn failed: {e}"),
        })?;
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false).map_err(io_fault)?;
                let _ = std::fs::remove_file(&sock);
                return Ok((SocketTransport::new(rank, stream), child));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(ShardFault::WorkerExit {
                        rank,
                        status: format!("exited before connecting: {status}"),
                    });
                }
                if Instant::now() > deadline {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(ShardFault::WorkerExit {
                        rank,
                        status: "never connected within 30s".to_string(),
                    });
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(error) => return Err(io_fault(error)),
        }
    }
}

impl ProcessWorld {
    /// Spawns `shards` workers (the `mdshard-worker` binary at `worker`)
    /// and partitions `system` across them. `sock_dir` holds the
    /// rendezvous sockets — both the driver ↔ worker boot sockets and the
    /// peer-mesh rendezvous endpoints. The [`Codec`] selects nothing:
    /// binary frames are the only wire form.
    pub fn spawn(
        system: &System,
        spec: &WorldSpec,
        shards: usize,
        worker: &Path,
        sock_dir: &Path,
        _codec: Codec,
    ) -> Result<ProcessWorld, ShardFault> {
        let (links, children) = spawn_workers(worker, shards, sock_dir)?;
        match ShardWorld::with_transports(system, spec, links, &sock_dir.to_string_lossy()) {
            Ok(world) => Ok(ProcessWorld { world, children }),
            Err(fault) => {
                kill_all(children);
                Err(fault)
            }
        }
    }

    /// Spawns fresh workers and resumes the world from the committed
    /// checkpoint generation in `ckpt_dir`.
    pub fn resume(
        ckpt_dir: &Path,
        sim_box: SimBox,
        spec: &WorldSpec,
        shards: usize,
        worker: &Path,
        sock_dir: &Path,
    ) -> Result<ProcessWorld, ShardFault> {
        let (links, children) = spawn_workers(worker, shards, sock_dir)?;
        match ShardWorld::resume_with_transports(
            ckpt_dir,
            sim_box,
            spec,
            links,
            &sock_dir.to_string_lossy(),
        ) {
            Ok(world) => Ok(ProcessWorld { world, children }),
            Err(fault) => {
                kill_all(children);
                Err(fault)
            }
        }
    }

    /// The underlying world.
    pub fn world(&mut self) -> &mut ShardWorld {
        &mut self.world
    }

    /// SIGKILLs one worker (chaos testing): the next protocol round on its
    /// link reports [`ShardFault::TransportClosed`].
    pub fn kill_worker(&mut self, rank: usize) -> std::io::Result<()> {
        self.children[rank].kill()?;
        let _ = self.children[rank].wait();
        Ok(())
    }

    /// Clean shutdown: asks workers to exit, then reaps them (killing any
    /// that ignore the request).
    pub fn shutdown(mut self) {
        self.world.shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        for child in &mut self.children {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() > deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                    Err(_) => break,
                }
            }
        }
        self.children.clear();
    }
}

impl std::ops::Deref for ProcessWorld {
    type Target = ShardWorld;
    fn deref(&self) -> &ShardWorld {
        &self.world
    }
}

impl std::ops::DerefMut for ProcessWorld {
    fn deref_mut(&mut self) -> &mut ShardWorld {
        &mut self.world
    }
}

impl Drop for ProcessWorld {
    fn drop(&mut self) {
        kill_all(std::mem::take(&mut self.children));
    }
}

fn kill_all(children: Vec<Child>) {
    for mut child in children {
        let _ = child.kill();
        let _ = child.wait();
    }
}

/// Resolves the worker binary: `$MDSHARD_WORKER` if set, else
/// `mdshard-worker` next to the current executable.
pub fn default_worker_path() -> Result<PathBuf, String> {
    if let Ok(p) = std::env::var("MDSHARD_WORKER") {
        let p = PathBuf::from(p);
        if p.is_file() {
            return Ok(p);
        }
        return Err(format!("MDSHARD_WORKER={} does not exist", p.display()));
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe failed: {e}"))?;
    let sibling = exe.with_file_name("mdshard-worker");
    if sibling.is_file() {
        Ok(sibling)
    } else {
        Err(format!(
            "worker binary not found at {} (build it with `cargo build --release -p md-shard` or set MDSHARD_WORKER)",
            sibling.display()
        ))
    }
}
