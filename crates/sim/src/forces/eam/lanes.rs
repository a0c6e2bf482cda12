//! The lane code of the EAM row kernels: the geometry of one row's stored
//! pairs, [`LANES`] at a time.
//!
//! Both row kernels walk a row's stored pairs four at a time through one
//! [`PairLanes`] leg: a load of the neighbour ids, the positions `pos[j]`,
//! the displacement `d = pᵢ − pⱼ` after the minimum image, `r²` and `r`.
//! The density kernel takes `r` (the [`SKIN`] sentinel on a skin lane) and
//! the cutoff mask; the force kernel takes the masked terms `d·(−s/r)`.
//!
//! * [`Avx2`] computes the lanes in 256-bit registers. It loads the ids with
//!   a masked load and gathers `pos[j]` and `F′(ρⱼ)` with 64-bit indices
//!   (`3·j` overflows `i32` beyond ~715 M atoms). Tail lanes are masked off,
//!   so it never reads past the row's CSR window, whose next slots belong to
//!   another task's rows under SDC; it stores only whole lane arrays on the
//!   stack, never a tail into shared data.
//! * [`Scalar`] is the per-pair expression, pair by pair: the one place the
//!   engine still calls [`SimBox::min_image`] per stored pair. It runs when
//!   [`md_potential::simd_active`] is false (no AVX2, or
//!   `MD_SIMD_SCALAR=1`).
//!
//! Both legs give the same bits for every lane (tested below against
//! adversarial rows), because each performs the scalar code's IEEE
//! operations on the same operands:
//!
//! * the minimum image forms `d − L` and `d + L` and selects with the
//!   ordered compares `d > L/2` and `d < −L/2`. These cannot both hold, and
//!   a NaN satisfies neither, exactly like the `if / else if`. An open axis
//!   has `L/2 = +∞`, so neither compare fires there;
//! * `r² = (dx·dx + dy·dy) + dz·dz` with separate multiplies and adds (Rust
//!   never contracts to FMA), and `sqrt` is correctly rounded in both legs;
//! * the cutoff mask is the negated `!(r² ≥ rc²)`, so a NaN separation is
//!   live and its poison flows on;
//! * `s = φ′ + (F′ᵢ + F′ⱼ)·f′` and `d·(−s/r)` keep the scalar operation
//!   order; `−s` flips the sign bit.
//!
//! A skin lane's force terms are masked to exactly `+0.0` with a bitwise
//! AND, never a multiply: its record holds the splines at the sentinel,
//! which may be inf or NaN (see `density_rows_in` for why adding the masked
//! zero changes no bit).

use super::PairRecord;
use md_geometry::{SimBox, Vec3};

/// Lanes per step: one AVX2 register of `f64`.
pub(super) const LANES: usize = 4;

/// The separation a skin lane hands to the splines: inside every table's
/// domain (a separation `r ≥ rc` would drop its whole 4-lane block off the
/// vector spline path), and below zero, so no live lane can carry it.
pub(super) const SKIN: f64 = -1.0;

/// The all-ones or all-zeros lane mask of `live`.
#[inline(always)]
pub(super) fn lane_mask(live: bool) -> u64 {
    (live as u64).wrapping_neg()
}

/// `x` on a live lane, exactly `+0.0` on a dead one.
#[inline(always)]
pub(super) fn masked(x: f64, mask: u64) -> f64 {
    f64::from_bits(x.to_bits() & mask)
}

/// The box, the positions and the cutoff in the form the lanes use.
pub(super) struct Geometry<'a> {
    sim_box: &'a SimBox,
    pos: &'a [Vec3],
    rc2: f64,
    /// Edge length per axis.
    len: [f64; 3],
    /// `L/2` on a periodic axis and `+∞` on an open one, so the min-image
    /// compares never fire on an open axis.
    half: [f64; 3],
}

impl<'a> Geometry<'a> {
    pub(super) fn new(sim_box: &'a SimBox, pos: &'a [Vec3], rc2: f64) -> Geometry<'a> {
        let l = sim_box.lengths();
        let periodic = sim_box.periodicity();
        let half = |k: usize| {
            if periodic[k] {
                0.5 * l[k]
            } else {
                f64::INFINITY
            }
        };
        Geometry {
            sim_box,
            pos,
            rc2,
            len: [l.x, l.y, l.z],
            half: [half(0), half(1), half(2)],
        }
    }

    pub(super) fn pos(&self) -> &'a [Vec3] {
        self.pos
    }
}

/// One leg of the lane code. Each call covers `ids`, one to [`LANES`]
/// consecutive stored neighbours of the row whose atom sits at `pi`; output
/// lanes past `ids.len()` are unspecified.
///
/// # Safety
/// For every method: `1 ≤ ids.len() ≤ LANES`. [`Avx2`]'s methods also need
/// a CPU with AVX2.
pub(super) trait PairLanes: Copy {
    /// The density lanes: `r[l]` is the separation of pair `l`, or [`SKIN`]
    /// on a skin lane (`r² ≥ rc²`), and `live[l]` its [`lane_mask`].
    ///
    /// # Safety
    /// See the trait.
    unsafe fn separations(
        self,
        g: &Geometry<'_>,
        pi: Vec3,
        ids: &[u32],
        r: &mut [f64; LANES],
        live: &mut [u64; LANES],
    );

    /// The force lanes: `f[a][l]` is component `a` of `d·(−s/r)` for pair
    /// `l`, with `s = φ′ + (F′ᵢ + F′ⱼ)·f′` from `recs[l]`, `fpi` and
    /// `fp[j]`; exactly `+0.0` on a skin lane, whatever its record holds.
    ///
    /// # Safety
    /// See the trait; also `recs.len() == ids.len()` and
    /// `fp.len() == g.pos().len()`.
    #[allow(clippy::too_many_arguments)]
    unsafe fn forces(
        self,
        g: &Geometry<'_>,
        pi: Vec3,
        fpi: f64,
        fp: &[f64],
        ids: &[u32],
        recs: &[PairRecord],
        f: &mut [[f64; LANES]; 3],
    );
}

/// The scalar leg: the per-pair expressions, one pair at a time.
#[derive(Debug, Clone, Copy)]
pub(super) struct Scalar;

impl PairLanes for Scalar {
    #[inline(always)]
    unsafe fn separations(
        self,
        g: &Geometry<'_>,
        pi: Vec3,
        ids: &[u32],
        r: &mut [f64; LANES],
        live: &mut [u64; LANES],
    ) {
        for (l, &j) in ids.iter().enumerate() {
            let r2 = g.sim_box.min_image(pi, g.pos[j as usize]).norm_sq();
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let is_live = !(r2 >= g.rc2);
            r[l] = if is_live { r2.sqrt() } else { SKIN };
            live[l] = lane_mask(is_live);
        }
    }

    #[inline(always)]
    unsafe fn forces(
        self,
        g: &Geometry<'_>,
        pi: Vec3,
        fpi: f64,
        fp: &[f64],
        ids: &[u32],
        recs: &[PairRecord],
        f: &mut [[f64; LANES]; 3],
    ) {
        for (l, (&j, rec)) in ids.iter().zip(recs).enumerate() {
            let j = j as usize;
            let d = g.sim_box.min_image(pi, g.pos[j]);
            let r2 = d.norm_sq();
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            let live = lane_mask(!(r2 >= g.rc2));
            let scalar = rec.dphi + (fpi + fp[j]) * rec.df;
            // F_i = −dE/dr · r̂, r̂ = (r_i − r_j)/r; Newton gives −F to j.
            let t = d * (-scalar / r2.sqrt());
            f[0][l] = masked(t.x, live);
            f[1][l] = masked(t.y, live);
            f[2][l] = masked(t.z, live);
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) use avx2::Avx2;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Geometry, PairLanes, PairRecord, LANES, SKIN};
    use core::arch::x86_64::*;
    use md_geometry::Vec3;

    /// Lane masks: the four 64-bit lanes read from `TAIL[8 − k..]` are all
    /// ones in the first `k` lanes and zero after (`−4 ≤ k ≤ 8`).
    static TAIL: [i64; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
    /// The same for four 32-bit lanes, read from `TAIL32[4 − k..]`
    /// (`0 ≤ k ≤ 4`).
    static TAIL32: [i32; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];

    /// The AVX2 leg: four pairs per register.
    #[derive(Debug, Clone, Copy)]
    pub(in super::super) struct Avx2;

    /// Four 64-bit lanes of [`TAIL`] from `at` on.
    #[inline(always)]
    unsafe fn tail(at: usize) -> __m256i {
        // SAFETY: the slice is in bounds (checked); AVX is the caller's.
        unsafe { _mm256_loadu_si256(TAIL[at..at + 4].as_ptr().cast()) }
    }

    /// One axis of the minimum image: `d − L` where `d > L/2`, `d + L`
    /// where `d < −L/2`, else `d` — both candidates from the same `d`.
    #[inline(always)]
    unsafe fn image(d: __m256d, len: f64, half: f64) -> __m256d {
        // SAFETY: AVX is the caller's contract.
        unsafe {
            let l = _mm256_set1_pd(len);
            let up = _mm256_cmp_pd::<_CMP_GT_OQ>(d, _mm256_set1_pd(half));
            let down = _mm256_cmp_pd::<_CMP_LT_OQ>(d, _mm256_set1_pd(-half));
            let (minus, plus) = (_mm256_sub_pd(d, l), _mm256_add_pd(d, l));
            _mm256_blendv_pd(_mm256_blendv_pd(d, minus, up), plus, down)
        }
    }

    /// The lanes of `ids`: `(dx, dy, dz, r², j, lanes)`, with `d` after the
    /// minimum image, `j` the ids widened to 64 bits and `lanes` the mask
    /// of the lanes that carry a pair.
    ///
    /// # Safety
    /// AVX2, and `1 ≤ ids.len() ≤ LANES`.
    #[inline(always)]
    unsafe fn geometry(
        g: &Geometry<'_>,
        pi: Vec3,
        ids: &[u32],
    ) -> (__m256d, __m256d, __m256d, __m256d, __m256i, __m256d) {
        let m = ids.len();
        debug_assert!((1..=LANES).contains(&m), "{m} ids in one lane step");
        // SAFETY: AVX2 is the caller's; the masked load reads only the `m`
        // ids of the slice, and the gathers read only lanes whose id was
        // just checked to index `pos` (tail lanes are masked off).
        unsafe {
            let ids32 = _mm_loadu_si128(TAIL32[4 - m..][..4].as_ptr().cast());
            let j = _mm256_cvtepu32_epi64(_mm_maskload_epi32(ids.as_ptr().cast(), ids32));
            // Always checked: a CSR does not promise that its ids index
            // `pos`, and a gather has no bounds check of its own.
            let last = _mm256_set1_epi64x(g.pos.len() as i64 - 1);
            let beyond = _mm256_cmpgt_epi64(j, last);
            assert!(
                _mm256_testz_si256(beyond, beyond) == 1,
                "a stored neighbour id is beyond the {} positions",
                g.pos.len()
            );
            let lanes = _mm256_castsi256_pd(tail(8 - m));
            let j3 = _mm256_add_epi64(j, _mm256_add_epi64(j, j));
            let base = g.pos.as_ptr().cast::<f64>();
            let zero = _mm256_setzero_pd();
            let x = _mm256_mask_i64gather_pd::<8>(zero, base, j3, lanes);
            let y = _mm256_mask_i64gather_pd::<8>(zero, base.wrapping_add(1), j3, lanes);
            let z = _mm256_mask_i64gather_pd::<8>(zero, base.wrapping_add(2), j3, lanes);
            let dx = image(_mm256_sub_pd(_mm256_set1_pd(pi.x), x), g.len[0], g.half[0]);
            let dy = image(_mm256_sub_pd(_mm256_set1_pd(pi.y), y), g.len[1], g.half[1]);
            let dz = image(_mm256_sub_pd(_mm256_set1_pd(pi.z), z), g.len[2], g.half[2]);
            let r2 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz),
            );
            (dx, dy, dz, r2, j, lanes)
        }
    }

    impl PairLanes for Avx2 {
        #[inline(always)]
        unsafe fn separations(
            self,
            g: &Geometry<'_>,
            pi: Vec3,
            ids: &[u32],
            r: &mut [f64; LANES],
            live: &mut [u64; LANES],
        ) {
            // SAFETY: the trait's contract; the stores write whole arrays.
            unsafe {
                let (_, _, _, r2, _, _) = geometry(g, pi, ids);
                let mask = _mm256_cmp_pd::<_CMP_NGE_UQ>(r2, _mm256_set1_pd(g.rc2));
                let sep = _mm256_blendv_pd(_mm256_set1_pd(SKIN), _mm256_sqrt_pd(r2), mask);
                _mm256_storeu_pd(r.as_mut_ptr(), sep);
                _mm256_storeu_pd(live.as_mut_ptr().cast(), mask);
            }
        }

        #[inline(always)]
        unsafe fn forces(
            self,
            g: &Geometry<'_>,
            pi: Vec3,
            fpi: f64,
            fp: &[f64],
            ids: &[u32],
            recs: &[PairRecord],
            f: &mut [[f64; LANES]; 3],
        ) {
            let m = ids.len();
            debug_assert_eq!(recs.len(), m, "one record per pair");
            debug_assert_eq!(fp.len(), g.pos.len(), "one F′ per atom");
            // SAFETY: the trait's contract. The fp gather reads lanes whose
            // id indexes `pos`, hence `fp`; the record loads read only the
            // `m` records of `recs` (a fully masked load touches no memory);
            // the stores write whole arrays.
            unsafe {
                let (dx, dy, dz, r2, j, lanes) = geometry(g, pi, ids);
                let zero = _mm256_setzero_pd();
                let fpj = _mm256_mask_i64gather_pd::<8>(zero, fp.as_ptr(), j, lanes);
                // Records [φ′₀ f′₀ φ′₁ f′₁] [φ′₂ f′₂ φ′₃ f′₃], straight from
                // the record array, then de-interleaved.
                let p = recs.as_ptr().cast::<f64>();
                let lo = _mm256_maskload_pd(p, tail(8 - 2 * m));
                let hi = _mm256_maskload_pd(p.wrapping_add(4), tail(12 - 2 * m));
                let dphi = _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_unpacklo_pd(lo, hi));
                let df = _mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_unpackhi_pd(lo, hi));
                let s = _mm256_add_pd(
                    dphi,
                    _mm256_mul_pd(_mm256_add_pd(_mm256_set1_pd(fpi), fpj), df),
                );
                let minus_s = _mm256_xor_pd(s, _mm256_set1_pd(-0.0));
                let k = _mm256_div_pd(minus_s, _mm256_sqrt_pd(r2));
                let live = _mm256_cmp_pd::<_CMP_NGE_UQ>(r2, _mm256_set1_pd(g.rc2));
                _mm256_storeu_pd(f[0].as_mut_ptr(), _mm256_and_pd(_mm256_mul_pd(dx, k), live));
                _mm256_storeu_pd(f[1].as_mut_ptr(), _mm256_and_pd(_mm256_mul_pd(dy, k), live));
                _mm256_storeu_pd(f[2].as_mut_ptr(), _mm256_and_pd(_mm256_mul_pd(dz, k), live));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::eam::{density_rows_in, force_rows_in, CHUNK};
    use md_base::pool::SharedSlice;
    use md_base::rng::Rng;
    use md_neighbor::Csr;
    use md_potential::{AnalyticEam, EamPotential};
    use sdc_core::TaskRows;

    /// Bits of `x`, with every NaN as one pattern: a NaN's payload may
    /// depend on which operand the compiler puts first, which neither leg
    /// promises.
    fn bits(x: f64) -> u64 {
        if x.is_nan() {
            u64::MAX
        } else {
            x.to_bits()
        }
    }

    /// Periodic in x and y (edges 20 and 24), open in z (edge 16).
    fn slab() -> SimBox {
        SimBox::with_periodicity(Vec3::new(20.0, 24.0, 16.0), [true, true, false])
    }

    /// Displacements that probe the minimum image on every axis, with the
    /// row's atom at the origin (so `d = −pⱼ` exactly): `±L/2` and one ulp
    /// either side, far beyond `L/2` (imaged only on periodic axes), zero,
    /// ±∞ and NaN.
    fn boundary_offsets(len: f64) -> Vec<f64> {
        let h = 0.5 * len;
        vec![
            h,
            h.next_up(),
            h.next_down(),
            -h,
            (-h).next_up(),
            (-h).next_down(),
            0.9 * len,
            -0.9 * len,
            0.0,
            -0.0,
            1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ]
    }

    /// Positions of adversarial neighbours: every boundary offset on each
    /// axis in turn, then random points in and around the box.
    fn adversarial_positions(sim_box: &SimBox, rng: &mut Rng) -> Vec<Vec3> {
        let l = sim_box.lengths();
        let mut pos = Vec::new();
        for axis in 0..3 {
            for d in boundary_offsets(l[axis]) {
                let mut p = Vec3::new(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0), 0.5);
                p[axis] = -d;
                pos.push(p);
            }
        }
        for _ in 0..40 {
            pos.push(Vec3::new(
                rng.uniform(-0.2 * l.x, 1.2 * l.x),
                rng.uniform(-0.2 * l.y, 1.2 * l.y),
                rng.uniform(-0.2 * l.z, 1.2 * l.z),
            ));
        }
        pos
    }

    /// Records that a skin lane must not leak: inf, NaN and huge values
    /// among ordinary ones.
    fn adversarial_records(n: usize, rng: &mut Rng) -> Vec<PairRecord> {
        (0..n)
            .map(|k| match k % 7 {
                0 => PairRecord {
                    dphi: f64::INFINITY,
                    df: f64::NAN,
                },
                1 => PairRecord {
                    dphi: f64::NAN,
                    df: -1e300,
                },
                _ => PairRecord {
                    dphi: rng.uniform(-2.0, 2.0),
                    df: rng.uniform(-1.0, 1.0),
                },
            })
            .collect()
    }

    /// The first `ids.len()` lanes of both lane methods over one row,
    /// [`LANES`] at a time as the row kernels walk it: `(r, live, f)`.
    #[allow(clippy::type_complexity)]
    fn row_lanes<L: PairLanes>(
        lanes: L,
        g: &Geometry<'_>,
        pi: Vec3,
        fp: &[f64],
        ids: &[u32],
        recs: &[PairRecord],
    ) -> (Vec<f64>, Vec<u64>, Vec<[f64; 3]>) {
        let (mut r, mut live, mut f) = (Vec::new(), Vec::new(), Vec::new());
        for (ids, recs) in ids.chunks(LANES).zip(recs.chunks(LANES)) {
            let (mut r4, mut live4, mut t) = ([0.0; LANES], [0; LANES], [[0.0; LANES]; 3]);
            // SAFETY: one to LANES ids, one record each, `fp` per atom; the
            // caller checked AVX2 before passing that leg.
            unsafe {
                lanes.separations(g, pi, ids, &mut r4, &mut live4);
                lanes.forces(g, pi, 0.25, fp, ids, recs, &mut t);
            }
            let m = ids.len();
            r.extend_from_slice(&r4[..m]);
            live.extend_from_slice(&live4[..m]);
            f.extend((0..m).map(|l| [t[0][l], t[1][l], t[2][l]]));
        }
        (r, live, f)
    }

    /// The AVX2 leg, or `None` (with a message) on a host without AVX2.
    #[cfg(target_arch = "x86_64")]
    fn avx2_or_skip(test: &str) -> Option<Avx2> {
        if std::arch::is_x86_feature_detected!("avx2") {
            Some(Avx2)
        } else {
            eprintln!("{test}: SKIPPED, this host has no AVX2 (only the scalar leg exists here)");
            None
        }
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn legs_agree_bit_for_bit_on_adversarial_rows() {
        eprintln!("legs_agree_bit_for_bit_on_adversarial_rows: SKIPPED, no AVX2 leg off x86-64");
    }

    /// Both legs give the same bits on rows built to break a lane
    /// min-image: components exactly at `±L/2` and one ulp either side,
    /// beyond `L/2` on the open axis, ±∞ and NaN coordinates (in the
    /// neighbour and in the row's own atom), under a cutoff that makes most
    /// lanes live and one that makes many skin lanes, for every row length
    /// 0–9 and so every tail. Skin lanes carry the sentinel, a zero mask
    /// and exactly `+0.0` force terms although their records hold inf and
    /// NaN. The ids after each row's window are out of range, so a leg that
    /// read past the window would trip the gather's bounds check.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn legs_agree_bit_for_bit_on_adversarial_rows() {
        let Some(avx2) = avx2_or_skip("legs_agree_bit_for_bit_on_adversarial_rows") else {
            return;
        };
        let sim_box = slab();
        let mut rng = Rng::new(18);
        let pos = adversarial_positions(&sim_box, &mut rng);
        let n = pos.len();
        let fp: Vec<f64> = (0..n)
            .map(|k| {
                if k == 3 {
                    f64::NAN
                } else {
                    rng.uniform(-3.0, 3.0)
                }
            })
            .collect();
        let mut checked = [0usize; 2];
        for rc2 in [1e6, 30.0] {
            let g = Geometry::new(&sim_box, &pos, rc2);
            for pi in [
                Vec3::ZERO,
                Vec3::new(3.0, -2.0, 7.5),
                Vec3::new(f64::NAN, 1.0, 1.0),
            ] {
                for len in 0..=9 {
                    for start in (0..n).step_by(5) {
                        let mut ids: Vec<u32> =
                            (0..len).map(|k| ((start + 3 * k) % n) as u32).collect();
                        let window = ids.len();
                        ids.extend([u32::MAX; LANES]);
                        let recs = adversarial_records(len, &mut rng);
                        let a = row_lanes(avx2, &g, pi, &fp, &ids[..window], &recs);
                        let s = row_lanes(Scalar, &g, pi, &fp, &ids[..window], &recs);
                        let what = format!("rc2 {rc2} pi {pi} row {:?}", &ids[..window]);
                        let rb = |v: &[f64]| v.iter().map(|&x| bits(x)).collect::<Vec<_>>();
                        assert_eq!(rb(&a.0), rb(&s.0), "{what}: r lanes");
                        assert_eq!(a.1, s.1, "{what}: live masks");
                        let fb = |v: &[[f64; 3]]| {
                            v.iter().flatten().map(|&x| bits(x)).collect::<Vec<_>>()
                        };
                        assert_eq!(fb(&a.2), fb(&s.2), "{what}: force terms");
                        for (l, &live) in s.1.iter().enumerate() {
                            checked[(live == 0) as usize] += 1;
                            if live == 0 {
                                assert_eq!(s.0[l], SKIN, "{what}: lane {l} sentinel");
                                assert_eq!(
                                    s.2[l].map(f64::to_bits),
                                    [0; 3],
                                    "{what}: lane {l} +0.0"
                                );
                            }
                        }
                    }
                }
            }
        }
        assert!(
            checked[0] > 1000 && checked[1] > 1000,
            "live and skin lanes both covered: {checked:?}"
        );
    }

    /// The min-image lanes against hand-computed displacements: on a
    /// periodic axis exactly `±L/2` stays, one ulp beyond flips by `∓L`;
    /// an open axis never flips.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn lane_min_image_flips_strictly_beyond_half_the_edge() {
        let Some(avx2) = avx2_or_skip("lane_min_image_flips_strictly_beyond_half_the_edge") else {
            return;
        };
        let sim_box = slab();
        let h = 10.0; // x edge 20, periodic
        let hz = 8.0; // z edge 16, open
        let cases = [
            (Vec3::new(-h, 0.0, 0.0), h),
            (Vec3::new(-h.next_up(), 0.0, 0.0), h.next_up() - 20.0),
            (Vec3::new(h.next_up(), 0.0, 0.0), 20.0 - h.next_up()),
            (Vec3::new(h, 0.0, 0.0), -h),
        ];
        let pos: Vec<Vec3> = cases.iter().map(|c| c.0).collect();
        let g = Geometry::new(&sim_box, &pos, 1e6);
        let recs = [PairRecord {
            dphi: -1.0,
            df: 0.0,
        }; 4];
        let fp = [0.0; 4];
        for leg in 0..2 {
            let (r, _, f) = if leg == 0 {
                row_lanes(avx2, &g, Vec3::ZERO, &fp, &[0, 1, 2, 3], &recs)
            } else {
                row_lanes(Scalar, &g, Vec3::ZERO, &fp, &[0, 1, 2, 3], &recs)
            };
            for (l, &(_, dx)) in cases.iter().enumerate() {
                assert_eq!(r[l], dx.abs(), "leg {leg} lane {l}: r");
                // s = −1 ⇒ the term is d·(1/r): its sign is the sign of dx.
                assert_eq!(f[l][0].signum(), dx.signum(), "leg {leg} lane {l}: dx sign");
            }
            let pos = [Vec3::new(0.0, 0.0, -(hz + 5.0))];
            let g = Geometry::new(&sim_box, &pos, 1e6);
            let ids = [0];
            let (r, _, _) = if leg == 0 {
                row_lanes(avx2, &g, Vec3::ZERO, &fp[..1], &ids, &recs[..1])
            } else {
                row_lanes(Scalar, &g, Vec3::ZERO, &fp[..1], &ids, &recs[..1])
            };
            assert_eq!(r[0], hz + 5.0, "leg {leg}: the open axis is never imaged");
        }
    }

    /// The row kernels on both legs: rho, every record and forces carry the
    /// same bits for rows of every length 0–9 and rows longer than a chunk
    /// (split inside the row, every tail length mod 4), visited in a
    /// shuffled task order, with adversarial positions and the analytic
    /// potential, whose splines at the skin sentinel are not small.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn row_kernels_agree_across_legs_on_every_row_length() {
        if avx2_or_skip("row_kernels_agree_across_legs_on_every_row_length").is_none() {
            return;
        }
        let sim_box = slab();
        let mut rng = Rng::new(7);
        let mut pos = adversarial_positions(&sim_box, &mut rng);
        for _ in 0..200 {
            let l = sim_box.lengths();
            pos.push(Vec3::new(
                rng.uniform(0.0, l.x),
                rng.uniform(0.0, l.y),
                rng.uniform(0.0, l.z),
            ));
        }
        let n = pos.len();
        let long = [CHUNK + 1, CHUNK + 2, CHUNK + 3, 2 * CHUNK, 2 * CHUNK + 3];
        let rows: Vec<Vec<u32>> = (0..n)
            .map(|i| {
                let len = if i < long.len() { long[i] } else { i % 10 };
                let len = len.min(n - i - 1);
                let mut js: Vec<u32> = (i as u32 + 1..n as u32).collect();
                rng.shuffle(&mut js);
                js.truncate(len);
                js.sort_unstable();
                js
            })
            .collect();
        let half = Csr::from_rows(&rows);
        let mut order: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut order);
        let pot = AnalyticEam::fe();
        let rc2 = pot.cutoff() * pot.cutoff();
        let geo = Geometry::new(&sim_box, &pos, rc2);
        let fp: Vec<f64> = (0..n).map(|_| rng.uniform(-2.0, 2.0)).collect();
        let run = |avx2: bool| {
            let mut rho = vec![0.0; n];
            let mut records = vec![PairRecord::default(); half.entries()];
            let mut forces = vec![Vec3::ZERO; n];
            let rows = TaskRows::Atoms(&order);
            let (rho_s, rec_s) = (SharedSlice::new(&mut rho), SharedSlice::new(&mut records));
            // SAFETY: one task owns every row; AVX2 was detected above.
            let steps = unsafe {
                if avx2 {
                    super::super::density_rows_avx2(rows, &half, &geo, &pot, &rho_s, &rec_s)
                } else {
                    density_rows_in(Scalar, rows, &half, &geo, &pot, &rho_s, &rec_s)
                }
            };
            let f_s = SharedSlice::new(&mut forces);
            // SAFETY: as above.
            unsafe {
                if avx2 {
                    super::super::force_rows_avx2(rows, &half, &geo, &fp, &records, &f_s)
                } else {
                    force_rows_in(Scalar, rows, &half, &geo, &fp, &records, &f_s)
                }
            }
            (steps, rho, records, forces)
        };
        let (a, s) = (run(true), run(false));
        assert_eq!(a.0, s.0, "lane steps");
        let chunks: usize = rows.iter().map(|r| r.len().div_ceil(CHUNK)).sum();
        assert!(
            chunks > rows.iter().filter(|r| !r.is_empty()).count(),
            "some rows split into chunks"
        );
        let rb = |v: &[f64]| v.iter().map(|&x| bits(x)).collect::<Vec<_>>();
        assert_eq!(rb(&a.1), rb(&s.1), "rho");
        let recb = |v: &[PairRecord]| {
            v.iter()
                .flat_map(|r| [bits(r.dphi), bits(r.df)])
                .collect::<Vec<_>>()
        };
        assert_eq!(recb(&a.2), recb(&s.2), "records");
        let fb = |v: &[Vec3]| {
            v.iter()
                .flat_map(|f| [bits(f.x), bits(f.y), bits(f.z)])
                .collect::<Vec<_>>()
        };
        assert_eq!(fb(&a.3), fb(&s.3), "forces");
        assert!(s.3.iter().any(|f| f.x != 0.0), "the sweep produced forces");
    }
}
