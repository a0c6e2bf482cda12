//! Per-shard checkpoints and the world manifest.
//!
//! Each shard persists its owned atoms to `shard-<rank>@<step>.ckpt`
//! (written by the worker itself, so no atom state crosses the wire to be
//! saved), and the driver commits a `world.meta` manifest naming the full
//! generation *after* every shard file is durable. Recovery therefore
//! always finds a consistent cut: either the old manifest with the old
//! files, or the new manifest with the new files — never a mix.
//!
//! Files are plain text with `f64`s as IEEE-754 hex bit patterns (exact
//! round trip) and a `fnv1a64` checksum footer, written through
//! [`md_sim::atomic_write`] (tmp sibling + fsync + rename), with
//! [`md_sim::sweep_stale_tmp_dir`] clearing crashed half-writes on load.

use crate::msg::ShardAtom;
use md_geometry::Vec3;
use md_sim::checkpoint::atomic_write;
use md_sim::{fnv1a64, sweep_stale_tmp_dir, CheckpointError};
use std::io::Write;
use std::path::{Path, PathBuf};

/// A checkpoint load/store failure.
#[derive(Debug)]
pub enum CkptError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Bad magic, truncation, checksum mismatch or malformed field.
    Corrupt(String),
}

impl std::fmt::Display for CkptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "I/O: {e}"),
            CkptError::Corrupt(e) => write!(f, "corrupt checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> CkptError {
        CkptError::Io(e)
    }
}

impl From<CheckpointError> for CkptError {
    fn from(e: CheckpointError) -> CkptError {
        match e {
            CheckpointError::Io(io) => CkptError::Io(io),
            other => CkptError::Corrupt(other.to_string()),
        }
    }
}

fn corrupt(what: impl Into<String>) -> CkptError {
    CkptError::Corrupt(what.into())
}

/// Renders an `f64` as the 16 lowercase hex digits of its IEEE-754 bit
/// pattern.
fn f64_to_hex(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Parses a bit pattern produced by [`f64_to_hex`]: exactly 16 lowercase
/// hex digits, nothing else. `u64::from_str_radix` alone is too lax here —
/// it takes uppercase and a leading `+` — and a file format that writes
/// only one canonical spelling must reject every other one.
fn hex_to_f64(s: &str) -> Result<f64, CkptError> {
    let ok = s.len() == 16
        && s.bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b));
    if !ok {
        return Err(corrupt(format!(
            "f64 bit pattern must be exactly 16 lowercase hex digits, got '{s}'"
        )));
    }
    u64::from_str_radix(s, 16)
        .map(f64::from_bits)
        .map_err(|_| corrupt(format!("bad f64 bit pattern '{s}'")))
}

/// File name of one shard's checkpoint at one step.
pub fn shard_file_name(rank: usize, step: u64) -> String {
    format!("shard-{rank}@{step}.ckpt")
}

/// Manifest file name.
pub const META_FILE: &str = "world.meta";

/// Writes `rank`'s owned atoms at `step` atomically; returns the path.
pub fn save_shard(
    dir: &Path,
    rank: usize,
    n_ranks: usize,
    step: u64,
    atoms: &[ShardAtom],
) -> Result<PathBuf, CkptError> {
    let path = dir.join(shard_file_name(rank, step));
    let body = render_shard(rank, n_ranks, step, atoms);
    atomic_write(&path, |f| {
        f.write_all(body.as_bytes()).map_err(CheckpointError::Io)
    })?;
    Ok(path)
}

fn render_shard(rank: usize, n_ranks: usize, step: u64, atoms: &[ShardAtom]) -> String {
    let mut body = String::new();
    body.push_str("mdshard shard v1\n");
    body.push_str(&format!("rank {rank} of {n_ranks}\n"));
    body.push_str(&format!("step {step}\n"));
    body.push_str(&format!("atoms {}\n", atoms.len()));
    for a in atoms {
        body.push_str(&format!(
            "{} {} {} {} {} {} {}\n",
            a.gid,
            f64_to_hex(a.pos.x),
            f64_to_hex(a.pos.y),
            f64_to_hex(a.pos.z),
            f64_to_hex(a.vel.x),
            f64_to_hex(a.vel.y),
            f64_to_hex(a.vel.z),
        ));
    }
    seal(body)
}

/// Appends the checksum footer over everything rendered so far.
fn seal(body: String) -> String {
    let sum = fnv1a64(body.as_bytes());
    format!("{body}checksum {sum:016x}\n")
}

/// Splits off and verifies the checksum footer, returning the body lines.
fn open_sealed(text: &str) -> Result<Vec<&str>, CkptError> {
    let trimmed = text.strip_suffix('\n').ok_or_else(|| corrupt("no final newline"))?;
    let (body_end, footer) = trimmed
        .rfind('\n')
        .map(|i| (i + 1, &trimmed[i + 1..]))
        .ok_or_else(|| corrupt("missing checksum footer"))?;
    let found = footer
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| corrupt("bad checksum footer"))?;
    let expected = fnv1a64(&text.as_bytes()[..body_end]);
    if expected != found {
        return Err(corrupt(format!(
            "checksum mismatch: computed {expected:016x}, file carries {found:016x}"
        )));
    }
    Ok(text[..body_end].lines().collect())
}

/// A loaded shard checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCkpt {
    /// Owning rank.
    pub rank: usize,
    /// World size the file was written under.
    pub n_ranks: usize,
    /// Step the atoms are at.
    pub step: u64,
    /// The owned atoms.
    pub atoms: Vec<ShardAtom>,
}

/// Reads and verifies one shard checkpoint file.
pub fn load_shard(path: &Path) -> Result<ShardCkpt, CkptError> {
    let text = std::fs::read_to_string(path)?;
    let lines = open_sealed(&text)?;
    let mut it = lines.into_iter();
    if it.next() != Some("mdshard shard v1") {
        return Err(corrupt("bad magic"));
    }
    let (rank, n_ranks) = {
        let l = it.next().ok_or_else(|| corrupt("missing rank line"))?;
        let rest = l.strip_prefix("rank ").ok_or_else(|| corrupt("bad rank line"))?;
        let (r, n) = rest.split_once(" of ").ok_or_else(|| corrupt("bad rank line"))?;
        (
            r.parse().map_err(|_| corrupt("bad rank"))?,
            n.parse().map_err(|_| corrupt("bad rank count"))?,
        )
    };
    let step = parse_kv(it.next(), "step ")?;
    let count: u64 = parse_kv(it.next(), "atoms ")?;
    let mut atoms = Vec::with_capacity(count as usize);
    for _ in 0..count {
        let l = it.next().ok_or_else(|| corrupt("truncated atom table"))?;
        let mut f = l.split_ascii_whitespace();
        let gid = f
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| corrupt("bad atom gid"))?;
        let mut next = || -> Result<f64, CkptError> {
            hex_to_f64(f.next().ok_or_else(|| corrupt("short atom line"))?)
        };
        let pos = Vec3::new(next()?, next()?, next()?);
        let vel = Vec3::new(next()?, next()?, next()?);
        atoms.push(ShardAtom { gid, pos, vel });
    }
    if it.next().is_some() {
        return Err(corrupt("trailing lines after atom table"));
    }
    Ok(ShardCkpt {
        rank,
        n_ranks,
        step,
        atoms,
    })
}

fn parse_kv(line: Option<&str>, key: &str) -> Result<u64, CkptError> {
    line.and_then(|l| l.strip_prefix(key))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(format!("bad '{}' line", key.trim())))
}

/// Atomically commits the manifest naming the generation at `step`; the
/// shard files it lists must already be durable.
pub fn commit_meta(dir: &Path, step: u64, n_ranks: usize) -> Result<(), CkptError> {
    let mut body = String::new();
    body.push_str("mdshard world v1\n");
    body.push_str(&format!("step {step}\n"));
    body.push_str(&format!("shards {n_ranks}\n"));
    for rank in 0..n_ranks {
        body.push_str(&format!("file {}\n", shard_file_name(rank, step)));
    }
    let body = seal(body);
    atomic_write(dir.join(META_FILE), |f| {
        f.write_all(body.as_bytes()).map_err(CheckpointError::Io)
    })?;
    Ok(())
}

/// Reads the manifest: the committed step and shard count.
pub fn load_meta(dir: &Path) -> Result<(u64, usize), CkptError> {
    let text = std::fs::read_to_string(dir.join(META_FILE))?;
    let lines = open_sealed(&text)?;
    let mut it = lines.into_iter();
    if it.next() != Some("mdshard world v1") {
        return Err(corrupt("bad manifest magic"));
    }
    let step = parse_kv(it.next(), "step ")?;
    let shards = parse_kv(it.next(), "shards ")? as usize;
    Ok((step, shards))
}

/// Loads the committed generation: sweeps stale tmp files, reads the
/// manifest, then every shard file, verifying ranks and steps agree.
pub fn load_world(dir: &Path, n_ranks: usize) -> Result<(u64, Vec<Vec<ShardAtom>>), CkptError> {
    sweep_stale_tmp_dir(dir)?;
    let (step, shards) = load_meta(dir)?;
    if shards != n_ranks {
        return Err(corrupt(format!(
            "manifest has {shards} shards, world expects {n_ranks}"
        )));
    }
    let mut per_rank = Vec::with_capacity(shards);
    for rank in 0..shards {
        let ckpt = load_shard(&dir.join(shard_file_name(rank, step)))?;
        if ckpt.rank != rank || ckpt.step != step || ckpt.n_ranks != shards {
            return Err(corrupt(format!(
                "shard file disagrees with manifest: rank {} step {} of {}",
                ckpt.rank, ckpt.step, ckpt.n_ranks
            )));
        }
        per_rank.push(ckpt.atoms);
    }
    Ok((step, per_rank))
}

/// Deletes checkpoint generations other than `keep_step` (called after a
/// successful manifest commit).
pub fn prune_old(dir: &Path, keep_step: u64) -> std::io::Result<()> {
    let keep = format!("@{keep_step}.ckpt");
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with("shard-") && name.ends_with(".ckpt") && !name.ends_with(&keep) {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atoms(n: u64) -> Vec<ShardAtom> {
        (0..n)
            .map(|gid| ShardAtom {
                gid: gid * 3,
                pos: Vec3::new(0.5 + gid as f64, -0.0, 1.0e-300),
                vel: Vec3::new(-1.5, gid as f64 * 0.125, f64::MIN_POSITIVE),
            })
            .collect()
    }

    #[test]
    fn hex_preserves_every_bit_pattern() {
        for x in [0.0, -0.0, 1.5, -1.0e-300, f64::INFINITY, f64::NAN, 5.67] {
            let back = hex_to_f64(&f64_to_hex(x)).unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
        for case in 0..192 {
            let bits = md_base::rng::Rng::new(case).next_u64();
            let back = hex_to_f64(&f64_to_hex(f64::from_bits(bits))).unwrap();
            assert_eq!(back.to_bits(), bits, "case {case}");
        }
    }

    #[test]
    fn hex_rejects_everything_but_16_lowercase_digits() {
        // The from_str_radix quirks a plain parse would inherit: uppercase
        // and a leading '+' both parse. All of these must fail,
        // explicitly.
        for bad in [
            "zz",
            "00000000000000000", // 17 digits
            "0000000000000000 ", // trailing space (17 long anyway)
            "3FF0000000000000",  // uppercase
            "+ff0000000000000",  // sign prefix, 16 long
            "-ff0000000000000",
            " ff0000000000000", // leading space, 16 long
            "3ff000000000000",  // 15 digits
            "3ff000000000000g",
            "",
        ] {
            assert!(
                matches!(hex_to_f64(bad), Err(CkptError::Corrupt(_))),
                "'{bad}' must be rejected"
            );
        }
        // The canonical spelling still parses.
        assert_eq!(hex_to_f64("3ff0000000000000").unwrap(), 1.0);
        assert_eq!(
            hex_to_f64(&f64_to_hex(-0.0)).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn shard_files_round_trip_bit_exactly() {
        let dir = std::env::temp_dir().join(format!("mdshard-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let want = atoms(5);
        let path = save_shard(&dir, 1, 4, 12, &want).unwrap();
        let back = load_shard(&path).unwrap();
        assert_eq!(back.rank, 1);
        assert_eq!(back.n_ranks, 4);
        assert_eq!(back.step, 12);
        for (a, b) in back.atoms.iter().zip(&want) {
            assert_eq!(a.gid, b.gid);
            assert_eq!(a.pos.to_array().map(f64::to_bits), b.pos.to_array().map(f64::to_bits));
            assert_eq!(a.vel.to_array().map(f64::to_bits), b.vel.to_array().map(f64::to_bits));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_commit_load_and_prune() {
        let dir = std::env::temp_dir().join(format!("mdshard-meta-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for rank in 0..2 {
            save_shard(&dir, rank, 2, 3, &atoms(2)).unwrap();
            save_shard(&dir, rank, 2, 9, &atoms(2)).unwrap();
        }
        commit_meta(&dir, 9, 2).unwrap();
        prune_old(&dir, 9).unwrap();
        assert!(!dir.join(shard_file_name(0, 3)).exists());
        let (step, per_rank) = load_world(&dir, 2).unwrap();
        assert_eq!(step, 9);
        assert_eq!(per_rank.len(), 2);
        assert!(matches!(
            load_world(&dir, 3),
            Err(CkptError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corruption_is_detected() {
        let dir = std::env::temp_dir().join(format!("mdshard-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = save_shard(&dir, 0, 1, 1, &atoms(3)).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replacen("mdshard", "mdshArd", 1);
        std::fs::write(&path, text).unwrap();
        assert!(matches!(load_shard(&path), Err(CkptError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
