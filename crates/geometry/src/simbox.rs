//! Orthorhombic periodic simulation box.
//!
//! The paper's experiments simulate BCC iron "under periodic boundary
//! conditions" (§III.B). All short-range MD machinery in this workspace
//! assumes an orthorhombic (axis-aligned, right-angled) box, which is what
//! both XMD and the paper use. The box provides the two operations every MD
//! kernel needs:
//!
//! * **wrapping** a position back into the primary image, and
//! * the **minimum-image** displacement between two positions.
//!
//! The minimum-image convention is only valid when every box edge exceeds
//! twice the interaction cutoff; [`SimBox::validate_cutoff`] checks this and
//! the neighbor/decomposition layers enforce it.

use crate::{Axis, Vec3};

/// An orthorhombic periodic simulation box `[0, L_x) × [0, L_y) × [0, L_z)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimBox {
    lengths: Vec3,
    periodic: [bool; 3],
}

impl SimBox {
    /// Creates a fully periodic box with the given edge lengths.
    ///
    /// # Panics
    /// Panics if any length is not strictly positive and finite.
    pub fn periodic(lengths: Vec3) -> SimBox {
        SimBox::with_periodicity(lengths, [true; 3])
    }

    /// Creates a cubic, fully periodic box with edge `l`.
    pub fn cubic(l: f64) -> SimBox {
        SimBox::periodic(Vec3::splat(l))
    }

    /// Creates a box with per-axis periodicity flags.
    ///
    /// Non-periodic axes neither wrap nor contribute image shifts; they are
    /// used for slab/surface setups in the examples.
    ///
    /// # Panics
    /// Panics if any length is not strictly positive and finite.
    pub fn with_periodicity(lengths: Vec3, periodic: [bool; 3]) -> SimBox {
        assert!(
            lengths.x > 0.0 && lengths.y > 0.0 && lengths.z > 0.0 && lengths.is_finite(),
            "box lengths must be positive and finite, got {lengths}"
        );
        SimBox { lengths, periodic }
    }

    /// Edge lengths of the box.
    #[inline]
    pub fn lengths(&self) -> Vec3 {
        self.lengths
    }

    /// Length along a single axis.
    #[inline]
    pub fn length(&self, axis: Axis) -> f64 {
        self.lengths[axis.index()]
    }

    /// Per-axis periodicity flags.
    #[inline]
    pub fn periodicity(&self) -> [bool; 3] {
        self.periodic
    }

    /// `true` if the box is periodic along `axis`.
    #[inline]
    pub fn is_periodic(&self, axis: Axis) -> bool {
        self.periodic[axis.index()]
    }

    /// Box volume.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.lengths.x * self.lengths.y * self.lengths.z
    }

    /// Wraps a position into the primary image `[0, L)` along each periodic
    /// axis. Non-periodic axes are left untouched.
    ///
    /// A coordinate already in `[0, L)`, as nearly every one is at every
    /// step, is kept without the `fmod` behind `rem_euclid`. That gives the
    /// same bits as the `rem_euclid` path: on `[0, L)` it returns `x`
    /// exactly, and `−0.0`, which passes `0.0 <= x`, stays `−0.0` on both
    /// paths. Every other value, `±∞` and NaN included, still takes the
    /// `rem_euclid` path.
    #[inline]
    pub fn wrap(&self, mut p: Vec3) -> Vec3 {
        for d in 0..3 {
            let l = self.lengths[d];
            if self.periodic[d] && !(0.0 <= p[d] && p[d] < l) {
                // `rem_euclid` is exact for the common "one box over" case and
                // robust for arbitrarily distant images.
                p[d] = p[d].rem_euclid(l);
                // rem_euclid may return exactly `l` when p is a tiny negative
                // number; fold that back to 0 to keep the half-open invariant.
                if p[d] >= l {
                    p[d] = 0.0;
                }
            }
        }
        p
    }

    /// Minimum-image displacement `a - b`.
    ///
    /// Valid when both points lie within one box length of the primary image
    /// and every periodic edge is at least twice the interaction cutoff.
    #[inline]
    pub fn min_image(&self, a: Vec3, b: Vec3) -> Vec3 {
        let mut d = a - b;
        for k in 0..3 {
            if self.periodic[k] {
                let l = self.lengths[k];
                if d[k] > 0.5 * l {
                    d[k] -= l;
                } else if d[k] < -0.5 * l {
                    d[k] += l;
                }
            }
        }
        d
    }

    /// Minimum-image squared distance between two points.
    #[inline]
    pub fn distance_sq(&self, a: Vec3, b: Vec3) -> f64 {
        self.min_image(a, b).norm_sq()
    }

    /// Checks the minimum-image validity requirement for an interaction
    /// cutoff `rc`: every periodic edge must satisfy `L ≥ 2·rc`.
    pub fn validate_cutoff(&self, rc: f64) -> Result<(), BoxError> {
        assert!(rc > 0.0 && rc.is_finite(), "cutoff must be positive, got {rc}");
        for ax in Axis::ALL {
            if self.is_periodic(ax) && self.length(ax) < 2.0 * rc {
                return Err(BoxError::CutoffTooLarge {
                    axis: ax,
                    length: self.length(ax),
                    rc,
                });
            }
        }
        Ok(())
    }

    /// Returns a new box scaled by `factors` along each axis, together with
    /// the affine map to apply to atom positions. Used by the
    /// micro-deformation driver (the paper's workload is "micro-deformation
    /// behaviors of the pure Fe metals material", §III.B).
    pub fn scaled(&self, factors: Vec3) -> SimBox {
        assert!(
            factors.x > 0.0 && factors.y > 0.0 && factors.z > 0.0,
            "scale factors must be positive, got {factors}"
        );
        SimBox {
            lengths: self.lengths.mul_elem(factors),
            periodic: self.periodic,
        }
    }

    /// Maps a position from this box to the equivalent fractional position
    /// in `[0,1)³` (positions outside the primary image map outside `[0,1)`).
    #[inline]
    pub fn to_fractional(&self, p: Vec3) -> Vec3 {
        p.div_elem(self.lengths)
    }

    /// Maps fractional coordinates back to Cartesian.
    #[inline]
    pub fn from_fractional(&self, f: Vec3) -> Vec3 {
        f.mul_elem(self.lengths)
    }
}

/// Errors arising from box/cutoff geometry validation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoxError {
    /// A periodic edge is shorter than `2 rc`, so the minimum-image
    /// convention (and the paper's `≥ 2 r_c` subdomain rule) cannot hold.
    CutoffTooLarge {
        /// Offending axis.
        axis: Axis,
        /// Edge length along that axis.
        length: f64,
        /// Requested cutoff.
        rc: f64,
    },
}

impl std::fmt::Display for BoxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoxError::CutoffTooLarge { axis, length, rc } => write!(
                f,
                "periodic box edge along {axis:?} is {length} but must be ≥ 2·rc = {}",
                2.0 * rc
            ),
        }
    }
}

impl std::error::Error for BoxError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_puts_points_in_primary_image() {
        let b = SimBox::cubic(10.0);
        assert_eq!(b.wrap(Vec3::new(11.0, -1.0, 25.0)), Vec3::new(1.0, 9.0, 5.0));
        assert_eq!(b.wrap(Vec3::new(0.0, 10.0, 9.999)), Vec3::new(0.0, 0.0, 9.999));
    }

    #[test]
    fn wrap_gives_the_bits_of_rem_euclid_and_the_fold() {
        // `wrap` as it was: `rem_euclid` on every periodic coordinate, then
        // the fold of an exact `L` back to 0.
        fn reference(x: f64, l: f64, periodic: bool) -> f64 {
            if !periodic {
                return x;
            }
            let r = x.rem_euclid(l);
            if r >= l {
                0.0
            } else {
                r
            }
        }
        let l = 28.665_f64;
        let xs = [
            0.0,
            -0.0,
            l.next_down(),
            l,
            -f64::from_bits(1),
            -1e-18,
            0.5 * l,
            -0.5 * l,
            2.5 * l,
            -2.5 * l,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for periodic in [[true, false, true], [false, true, false]] {
            let b = SimBox::with_periodicity(Vec3::new(l, l, l), periodic);
            for &x in &xs {
                let got = b.wrap(Vec3::splat(x));
                for d in 0..3 {
                    assert_eq!(
                        got[d].to_bits(),
                        reference(x, l, periodic[d]).to_bits(),
                        "x = {x:e} on a {} axis",
                        if periodic[d] { "periodic" } else { "open" }
                    );
                }
            }
        }
    }

    #[test]
    fn wrap_handles_tiny_negative_values() {
        let b = SimBox::cubic(10.0);
        let p = b.wrap(Vec3::new(-1e-18, 0.0, 0.0));
        assert!(p.x >= 0.0 && p.x < 10.0, "wrapped x = {}", p.x);
    }

    #[test]
    fn wrap_respects_non_periodic_axes() {
        let b = SimBox::with_periodicity(Vec3::splat(10.0), [true, false, true]);
        let p = b.wrap(Vec3::new(12.0, 12.0, 12.0));
        assert_eq!(p, Vec3::new(2.0, 12.0, 2.0));
    }

    #[test]
    fn min_image_picks_nearest_copy() {
        let b = SimBox::cubic(10.0);
        let a = Vec3::new(9.5, 0.0, 0.0);
        let c = Vec3::new(0.5, 0.0, 0.0);
        let d = b.min_image(a, c);
        assert!((d.x - (-1.0)).abs() < 1e-12, "dx = {}", d.x);
        assert_eq!(b.distance_sq(a, c), 1.0);
    }

    #[test]
    fn min_image_is_antisymmetric() {
        let b = SimBox::periodic(Vec3::new(8.0, 12.0, 20.0));
        let a = Vec3::new(7.9, 11.0, 1.0);
        let c = Vec3::new(0.2, 0.5, 19.5);
        let dab = b.min_image(a, c);
        let dba = b.min_image(c, a);
        assert!((dab + dba).norm() < 1e-12);
    }

    #[test]
    fn min_image_non_periodic_axis_uses_raw_difference() {
        let b = SimBox::with_periodicity(Vec3::splat(10.0), [false, true, true]);
        let d = b.min_image(Vec3::new(9.0, 0.0, 0.0), Vec3::new(0.0, 0.0, 0.0));
        assert_eq!(d.x, 9.0);
    }

    #[test]
    fn volume_and_lengths() {
        let b = SimBox::periodic(Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.volume(), 24.0);
        assert_eq!(b.length(Axis::Y), 3.0);
    }

    #[test]
    fn cutoff_validation() {
        let b = SimBox::cubic(10.0);
        assert!(b.validate_cutoff(4.9).is_ok());
        assert!(b.validate_cutoff(5.0).is_ok());
        let err = b.validate_cutoff(5.1).unwrap_err();
        match err {
            BoxError::CutoffTooLarge { rc, .. } => assert_eq!(rc, 5.1),
        }
        // error message formats
        assert!(err.to_string().contains("2·rc"));
    }

    #[test]
    fn cutoff_validation_skips_non_periodic_axes() {
        let b = SimBox::with_periodicity(Vec3::new(4.0, 100.0, 100.0), [false, true, true]);
        assert!(b.validate_cutoff(10.0).is_ok());
    }

    #[test]
    fn scaling_deforms_lengths() {
        let b = SimBox::periodic(Vec3::new(10.0, 10.0, 10.0));
        let s = b.scaled(Vec3::new(1.01, 1.0, 0.99));
        assert!((s.length(Axis::X) - 10.1).abs() < 1e-12);
        assert!((s.volume() - 10.1 * 10.0 * 9.9).abs() < 1e-9);
    }

    #[test]
    fn fractional_round_trip() {
        let b = SimBox::periodic(Vec3::new(2.0, 4.0, 8.0));
        let p = Vec3::new(1.0, 3.0, 6.0);
        let f = b.to_fractional(p);
        assert_eq!(f, Vec3::new(0.5, 0.75, 0.75));
        let q = b.from_fractional(f);
        assert!((q - p).norm() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_box_rejected() {
        let _ = SimBox::periodic(Vec3::new(0.0, 1.0, 1.0));
    }
}
