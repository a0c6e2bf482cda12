//! One shard of a sharded MD run (see `md-shard`).
//!
//! Spawned by the driver with `--connect <socket> --rank <r>`; speaks the
//! framed protocol on the socket until `Shutdown` or the driver goes away.
//! Halo traffic bypasses this loop entirely: the
//! [`md_shard::mesh::SocketMeshProvider`] installed here wires direct peer
//! links when the driver's brokering rounds arrive, and the core
//! pushes/pulls ghost frames on them from inside its handlers. All logic
//! lives in [`md_shard::ShardCore`] — this binary is only the read-frame /
//! handle / write-frame loop.

use md_shard::codec::{self, CodecError};
use md_shard::mesh::SocketMeshProvider;
use md_shard::ShardCore;
use std::io::ErrorKind;
use std::os::unix::net::UnixStream;
use std::process::exit;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut connect = None;
    let mut rank = String::from("?");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--connect" => connect = args.next(),
            "--rank" => rank = args.next().unwrap_or(rank),
            other => {
                eprintln!("mdshard-worker: unknown argument '{other}'");
                exit(2);
            }
        }
    }
    let Some(path) = connect else {
        eprintln!("usage: mdshard-worker --connect <socket> [--rank <r>]");
        exit(2);
    };
    let mut stream = match UnixStream::connect(&path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mdshard-worker[{rank}]: connect {path}: {e}");
            exit(1);
        }
    };

    let mut core = ShardCore::new(Box::<SocketMeshProvider>::default());
    loop {
        let msg = match codec::read_msg(&mut stream) {
            Ok(m) => m,
            // A clean EOF means the driver is gone; exit quietly so a
            // driver crash does not leave worker zombies complaining.
            Err(CodecError::Truncated) => break,
            Err(CodecError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof => break,
            Err(e) => {
                eprintln!("mdshard-worker[{rank}]: bad frame: {e}");
                exit(1);
            }
        };
        match core.handle(msg) {
            Ok(Some(reply)) => {
                if let Err(e) = codec::write_msg(&mut stream, &reply) {
                    eprintln!("mdshard-worker[{rank}]: reply failed: {e}");
                    exit(1);
                }
            }
            Ok(None) => break,
            Err(detail) => {
                eprintln!("mdshard-worker[{rank}]: protocol error: {detail}");
                exit(1);
            }
        }
    }
}
