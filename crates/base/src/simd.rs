//! The process's one SIMD switch.
//!
//! Every lane kernel in the workspace has an AVX2 leg and a scalar leg that
//! give the same bits: md-potential's batched splines, md-sim's EAM row
//! kernels and md-neighbor's list builder. [`simd_active`] picks the leg
//! for all of them. AVX2 is probed once per process, and the
//! `MD_SIMD_SCALAR` environment variable (any non-empty value) forces the
//! scalar legs, which is how CI exercises them on hosts that do have the
//! instructions.

use std::sync::OnceLock;

/// `true` when the lane kernels take their AVX2 legs: the CPU supports AVX2
/// (checked at runtime, x86-64 only) and the `MD_SIMD_SCALAR` environment
/// override is not set. The probe runs once and is cached for the life of
/// the process.
pub fn simd_active() -> bool {
    static ACTIVE: OnceLock<bool> = OnceLock::new();
    *ACTIVE.get_or_init(|| {
        if std::env::var_os("MD_SIMD_SCALAR").is_some_and(|v| !v.is_empty()) {
            return false;
        }
        detected()
    })
}

#[cfg(target_arch = "x86_64")]
fn detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(not(target_arch = "x86_64"))]
fn detected() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn override_env_is_read_once_and_cached() {
        // Whatever the ambient environment says, repeated queries agree:
        // the probe must be stable for the life of the process, because a
        // run assumes one leg throughout.
        assert_eq!(simd_active(), simd_active());
    }
}
