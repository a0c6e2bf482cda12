//! Checkpoint (restart) files.
//!
//! A plain-text snapshot of the full dynamic state — box, masses,
//! positions, velocities — sufficient to continue a run bit-exactly (forces
//! and EAM scratch are recomputed on load). The format is a versioned
//! whitespace table, human-inspectable like XMD's own state files.
//!
//! Two on-disk guarantees make checkpoints crash-safe:
//!
//! * **integrity** — the format (v2) ends with a `checksum` footer
//!   (FNV-1a 64 over every preceding byte), so truncation and bit-flips are
//!   detected at load instead of silently restarting from garbage. v1 files
//!   (no footer) are refused as unsupported.
//! * **atomicity** — [`save_checkpoint`] writes to a temporary sibling file
//!   and renames it over the target only after a successful flush + fsync,
//!   so a crash mid-write never clobbers the previous good checkpoint.

use crate::system::System;
use md_geometry::{SimBox, Vec3};
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};

const MAGIC: &str = "sdc-md-checkpoint";
/// Current checkpoint format version (written by [`write_checkpoint`]).
pub const VERSION: u32 = 2;
/// Oldest readable version.
pub const MIN_VERSION: u32 = 2;

/// Checkpoint read errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem (bad magic, truncation, non-numeric fields).
    Malformed(String),
    /// The file declares a format version this reader does not speak.
    UnsupportedVersion {
        /// Version found in the file header.
        found: u32,
        /// Newest version this reader supports.
        supported: u32,
    },
    /// The v2 checksum footer does not match the file contents — the file
    /// was truncated or corrupted after it was written.
    ChecksumMismatch {
        /// Checksum recorded in the footer.
        stored: u64,
        /// Checksum recomputed over the file body.
        computed: u64,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Malformed(m) => write!(f, "malformed checkpoint: {m}"),
            CheckpointError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint version v{found} (this reader speaks v{MIN_VERSION}..=v{supported})"
            ),
            CheckpointError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checkpoint checksum mismatch: footer says {stored:016x}, contents hash to {computed:016x} (file corrupted or truncated)"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> CheckpointError {
        CheckpointError::Io(e)
    }
}

/// FNV-1a 64-bit hash — dependency-free integrity check used by the v2
/// checkpoint footer and the `md-serve` journal's per-record footers.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Renders the checkpoint body (everything before the checksum footer).
fn render_body(system: &System, step: usize) -> String {
    use std::fmt::Write as _;
    let l = system.sim_box().lengths();
    let periodic = system.sim_box().periodicity();
    let mut body = String::with_capacity(128 + 128 * system.len());
    let _ = writeln!(body, "{MAGIC} v{VERSION}");
    let _ = writeln!(body, "step {step}");
    let _ = writeln!(
        body,
        "box {:.17e} {:.17e} {:.17e} {} {} {}",
        l.x, l.y, l.z, periodic[0] as u8, periodic[1] as u8, periodic[2] as u8
    );
    let _ = writeln!(body, "mass {:.17e}", system.mass());
    let _ = writeln!(body, "atoms {}", system.len());
    for (p, v) in system.positions().iter().zip(system.velocities()) {
        let _ = writeln!(
            body,
            "{:.17e} {:.17e} {:.17e} {:.17e} {:.17e} {:.17e}",
            p.x, p.y, p.z, v.x, v.y, v.z
        );
    }
    body
}

/// Writes a v2 checkpoint of `system` at step `step`, including the
/// checksum footer.
pub fn write_checkpoint(
    sink: &mut impl Write,
    system: &System,
    step: usize,
) -> Result<(), CheckpointError> {
    let body = render_body(system, step);
    sink.write_all(body.as_bytes())?;
    writeln!(sink, "checksum {:016x}", fnv1a64(body.as_bytes()))?;
    sink.flush()?;
    Ok(())
}

/// The temporary sibling path used by [`save_checkpoint`]'s atomic write.
pub fn checkpoint_tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Atomically replaces `path` with the output of `write`: the bytes go to a
/// temporary sibling first and are renamed over `path` only after a
/// successful flush + fsync. On any error the temporary file is removed and
/// an existing `path` is left untouched.
pub fn atomic_write(
    path: impl AsRef<Path>,
    write: impl FnOnce(&mut std::fs::File) -> Result<(), CheckpointError>,
) -> Result<(), CheckpointError> {
    let path = path.as_ref();
    let tmp = checkpoint_tmp_path(path);
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        write(&mut f)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Removes a stale temporary sibling of `path` left behind by a crash that
/// struck between [`atomic_write`]'s create and rename. A `*.tmp` file is
/// never a valid checkpoint — the rename is what commits it — so recovery
/// must discard it rather than ever consider reading it. Returns `true`
/// when a stale file was found and removed.
pub fn sweep_stale_tmp(path: impl AsRef<Path>) -> std::io::Result<bool> {
    let tmp = checkpoint_tmp_path(path.as_ref());
    match std::fs::remove_file(&tmp) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
        Err(e) => Err(e),
    }
}

/// Sweeps every stale `*.tmp` file in `dir` (see [`sweep_stale_tmp`]) —
/// the state-directory variant used by `mdserve` on startup, where crashed
/// workers may have left temp siblings for any number of job checkpoints.
/// Returns the paths removed.
pub fn sweep_stale_tmp_dir(dir: impl AsRef<Path>) -> std::io::Result<Vec<PathBuf>> {
    let mut swept = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let is_tmp = path
            .extension()
            .is_some_and(|e| e == "tmp")
            && path.is_file();
        if is_tmp {
            std::fs::remove_file(&path)?;
            swept.push(path);
        }
    }
    swept.sort();
    Ok(swept)
}

/// Saves a checkpoint to `path` atomically (temp file + rename; see
/// [`atomic_write`]).
pub fn save_checkpoint(
    path: impl AsRef<Path>,
    system: &System,
    step: usize,
) -> Result<(), CheckpointError> {
    atomic_write(path, |f| write_checkpoint(f, system, step))
}

/// Reads a checkpoint, returning the restored system and its step
/// counter. The checksum footer is verified before any field is trusted.
pub fn read_checkpoint(mut source: impl Read) -> Result<(System, usize), CheckpointError> {
    let mut raw = Vec::new();
    source.read_to_end(&mut raw)?;

    // Header: "<MAGIC> v<N>".
    let header_end = raw
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| CheckpointError::Malformed("missing header line".into()))?;
    let header = String::from_utf8_lossy(&raw[..header_end]);
    let version = match header.strip_prefix(MAGIC) {
        Some(rest) => rest
            .trim()
            .strip_prefix('v')
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or_else(|| {
                CheckpointError::Malformed(format!("bad version field in header '{header}'"))
            })?,
        None => {
            return Err(CheckpointError::Malformed(format!(
                "bad header '{header}' (expected '{MAGIC} v<N>')"
            )))
        }
    };
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(CheckpointError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }

    // Split off and verify the checksum footer before parsing anything.
    let trimmed_len = raw.iter().rposition(|&b| b != b'\n').map_or(0, |i| i + 1);
    let footer_start = raw[..trimmed_len]
        .iter()
        .rposition(|&b| b == b'\n')
        .map(|i| i + 1)
        .unwrap_or(0);
    let footer = String::from_utf8_lossy(&raw[footer_start..trimmed_len]);
    let stored = footer
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h.trim(), 16).ok())
        .ok_or_else(|| {
            CheckpointError::Malformed(format!(
                "missing or malformed checksum footer (last line: '{footer}')"
            ))
        })?;
    let body = &raw[..footer_start];
    let computed = fnv1a64(body);
    if stored != computed {
        return Err(CheckpointError::ChecksumMismatch { stored, computed });
    }
    parse_body(body)
}

/// Parses the (already integrity-checked) checkpoint body.
fn parse_body(body: &[u8]) -> Result<(System, usize), CheckpointError> {
    let mut lines = BufReader::new(body).lines();
    let mut next = || -> Result<String, CheckpointError> {
        lines
            .next()
            .ok_or_else(|| CheckpointError::Malformed("unexpected end of file".into()))?
            .map_err(CheckpointError::from)
    };
    next()?; // header, already validated
    let step: usize = field(&next()?, "step")?;
    let box_line = next()?;
    let toks: Vec<&str> = box_line.split_whitespace().collect();
    if toks.len() != 7 || toks[0] != "box" {
        return Err(CheckpointError::Malformed(format!("bad box line '{box_line}'")));
    }
    let parse_f = |t: &str| -> Result<f64, CheckpointError> {
        let v: f64 = t
            .parse()
            .map_err(|_| CheckpointError::Malformed(format!("bad number '{t}'")))?;
        if !v.is_finite() {
            return Err(CheckpointError::Malformed(format!(
                "non-finite value '{t}' in checkpoint"
            )));
        }
        Ok(v)
    };
    let lengths = Vec3::new(parse_f(toks[1])?, parse_f(toks[2])?, parse_f(toks[3])?);
    let periodic = [toks[4] == "1", toks[5] == "1", toks[6] == "1"];
    let mass: f64 = field(&next()?, "mass")?;
    let n: usize = field(&next()?, "atoms")?;
    let mut positions = Vec::with_capacity(n);
    let mut velocities = Vec::with_capacity(n);
    for k in 0..n {
        let line = next()?;
        let vals: Result<Vec<f64>, _> = line.split_whitespace().map(parse_f).collect();
        let vals = vals?;
        if vals.len() != 6 {
            return Err(CheckpointError::Malformed(format!(
                "atom {k}: expected 6 fields, got {}",
                vals.len()
            )));
        }
        positions.push(Vec3::new(vals[0], vals[1], vals[2]));
        velocities.push(Vec3::new(vals[3], vals[4], vals[5]));
    }
    let sim_box = SimBox::with_periodicity(lengths, periodic);
    let mut system = System::new(sim_box, positions, mass);
    system.velocities_mut().copy_from_slice(&velocities);
    Ok((system, step))
}

/// Loads a checkpoint from `path`.
pub fn load_checkpoint(path: impl AsRef<Path>) -> Result<(System, usize), CheckpointError> {
    read_checkpoint(std::fs::File::open(path)?)
}

fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, CheckpointError> {
    let mut it = line.split_whitespace();
    match (it.next(), it.next()) {
        (Some(k), Some(v)) if k == key => v
            .parse()
            .map_err(|_| CheckpointError::Malformed(format!("bad {key} value '{v}'"))),
        _ => Err(CheckpointError::Malformed(format!(
            "expected '{key} <value>', got '{line}'"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::FE_MASS;
    use crate::velocity::init_velocities;
    use md_geometry::LatticeSpec;

    fn state() -> System {
        let mut s = System::from_lattice(LatticeSpec::bcc_fe(3), FE_MASS);
        init_velocities(&mut s, 450.0, 7);
        s
    }

    /// A v2 checkpoint rendered to bytes.
    fn v2_bytes(system: &System, step: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, system, step).unwrap();
        buf
    }

    /// `body` sealed with a freshly computed checksum footer, so only the
    /// parser can reject what the body says.
    fn resealed(body: &str) -> Vec<u8> {
        format!("{body}checksum {:016x}\n", fnv1a64(body.as_bytes())).into_bytes()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let original = state();
        let buf = v2_bytes(&original, 123);
        let (restored, step) = read_checkpoint(&buf[..]).unwrap();
        assert_eq!(step, 123);
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.mass(), original.mass());
        assert_eq!(restored.positions(), original.positions());
        assert_eq!(restored.velocities(), original.velocities());
        assert_eq!(
            restored.sim_box().lengths(),
            original.sim_box().lengths()
        );
    }

    #[test]
    fn disk_round_trip() {
        let path = std::env::temp_dir().join("sdc_md_test.ckpt");
        let original = state();
        save_checkpoint(&path, &original, 5).unwrap();
        let (restored, step) = load_checkpoint(&path).unwrap();
        assert_eq!(step, 5);
        assert_eq!(restored.positions(), original.positions());
        // The atomic write leaves no temporary sibling behind.
        assert!(!checkpoint_tmp_path(&path).exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn unknown_version_reports_unsupported() {
        // v1 (the footerless format) is as unsupported as a future v7.
        for found in [1, 7] {
            let buf = resealed(&render_body(&state(), 0).replacen("v2", &format!("v{found}"), 1));
            match read_checkpoint(&buf[..]).unwrap_err() {
                CheckpointError::UnsupportedVersion {
                    found: f,
                    supported,
                } => {
                    assert_eq!(f, found);
                    assert_eq!(supported, VERSION);
                }
                other => panic!("expected UnsupportedVersion, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncated_file_is_rejected() {
        let mut buf = v2_bytes(&state(), 0);
        buf.truncate(buf.len() - 40);
        // Truncation eats the footer; whatever remains of the last line
        // cannot be a valid `checksum` footer or match the hash.
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(
            matches!(
                err,
                CheckpointError::Malformed(_) | CheckpointError::ChecksumMismatch { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn flipped_body_byte_is_a_checksum_mismatch() {
        let mut buf = v2_bytes(&state(), 9);
        // Flip one digit in the middle of the atom table.
        let mid = buf.len() / 2;
        let target = (mid..buf.len())
            .find(|&i| buf[i].is_ascii_digit())
            .unwrap();
        buf[target] = if buf[target] == b'5' { b'6' } else { b'5' };
        assert!(matches!(
            read_checkpoint(&buf[..]).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn flipped_footer_byte_is_rejected() {
        let mut buf = v2_bytes(&state(), 9);
        // Flip a hex digit inside the footer itself.
        let last = buf.iter().rposition(|b| b.is_ascii_hexdigit()).unwrap();
        buf[last] = if buf[last] == b'a' { b'b' } else { b'a' };
        assert!(matches!(
            read_checkpoint(&buf[..]).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn interrupted_atomic_write_preserves_previous_checkpoint() {
        let path = std::env::temp_dir().join("sdc_md_test_atomic.ckpt");
        let original = state();
        save_checkpoint(&path, &original, 11).unwrap();
        // A writer that dies mid-stream (simulated crash between writes).
        let err = atomic_write(&path, |f| {
            f.write_all(b"sdc-md-checkpoint v2\nstep 99\npartial garbage")?;
            Err(CheckpointError::Malformed("simulated crash".into()))
        })
        .unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        // The previous checkpoint is intact and the temp file is gone.
        let (restored, step) = load_checkpoint(&path).unwrap();
        assert_eq!(step, 11);
        assert_eq!(restored.positions(), original.positions());
        assert!(!checkpoint_tmp_path(&path).exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stale_tmp_files_are_swept_not_considered() {
        let dir = std::env::temp_dir().join("sdc_md_sweep_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join("run.ckpt");
        let original = state();
        save_checkpoint(&ckpt, &original, 7).unwrap();
        // A crash mid-atomic-write leaves a half-written temp sibling.
        let tmp = checkpoint_tmp_path(&ckpt);
        std::fs::write(&tmp, b"sdc-md-checkpoint v2\nstep 99\nhalf-writt").unwrap();
        // Single-path sweep: the temp file goes, the real checkpoint stays.
        assert!(sweep_stale_tmp(&ckpt).unwrap());
        assert!(!tmp.exists());
        let (_, step) = load_checkpoint(&ckpt).unwrap();
        assert_eq!(step, 7, "the committed checkpoint is untouched");
        // Sweeping again is a no-op, not an error.
        assert!(!sweep_stale_tmp(&ckpt).unwrap());
        // Directory sweep: only *.tmp files are removed.
        std::fs::write(dir.join("a.ckpt.tmp"), b"garbage").unwrap();
        std::fs::write(dir.join("b.ckpt.tmp"), b"garbage").unwrap();
        let swept = sweep_stale_tmp_dir(&dir).unwrap();
        assert_eq!(swept.len(), 2);
        assert!(ckpt.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_continues_the_same_trajectory() {
        use crate::forces::{ForceEngine, PotentialChoice};
        use crate::integrate::velocity_verlet;
        use md_potential::AnalyticEam;
        use sdc_core::StrategyKind;
        use std::sync::Arc;

        let mut reference = System::from_lattice(LatticeSpec::bcc_fe(5), FE_MASS);
        init_velocities(&mut reference, 300.0, 3);
        let pot = || PotentialChoice::Eam(Arc::new(AnalyticEam::fe()));
        let mut eng = ForceEngine::new(&reference, pot(), StrategyKind::Serial, 1, 0.3).unwrap();
        eng.compute(&mut reference);
        for _ in 0..10 {
            velocity_verlet(&mut reference, &mut eng, 1e-3);
        }
        // Checkpoint mid-run.
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, &reference, 10).unwrap();
        // Continue the original.
        for _ in 0..10 {
            velocity_verlet(&mut reference, &mut eng, 1e-3);
        }
        // Restore and continue the copy.
        let (mut restored, _) = read_checkpoint(&buf[..]).unwrap();
        let mut eng2 = ForceEngine::new(&restored, pot(), StrategyKind::Serial, 1, 0.3).unwrap();
        eng2.compute(&mut restored);
        for _ in 0..10 {
            velocity_verlet(&mut restored, &mut eng2, 1e-3);
        }
        for (a, b) in reference.positions().iter().zip(restored.positions()) {
            assert!((*a - *b).norm() < 1e-12, "trajectories diverged: {a} vs {b}");
        }
    }

    #[test]
    fn bad_files_are_rejected() {
        assert!(matches!(
            read_checkpoint("not a checkpoint\n".as_bytes()).unwrap_err(),
            CheckpointError::Malformed(_)
        ));
        // No newline at all.
        assert!(matches!(
            read_checkpoint("x".as_bytes()).unwrap_err(),
            CheckpointError::Malformed(_)
        ));
        // Truncated atom table under a valid checksum (the parser must
        // catch it).
        let body = render_body(&state(), 0);
        let buf = resealed(&format!("{}\n", &body[..body.len() - 40]));
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(matches!(err, CheckpointError::Malformed(_)), "{err}");
    }

    #[test]
    fn non_finite_fields_rejected_under_a_valid_checksum() {
        let body = render_body(&state(), 0);
        // Replace the first atom's x coordinate with NaN.
        let mut lines: Vec<String> = body.lines().map(String::from).collect();
        let mut atom = lines[5].split_whitespace().map(String::from).collect::<Vec<_>>();
        atom[0] = "NaN".into();
        lines[5] = atom.join(" ");
        let buf = resealed(&format!("{}\n", lines.join("\n")));
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("non-finite"), "{err}");
    }
}
