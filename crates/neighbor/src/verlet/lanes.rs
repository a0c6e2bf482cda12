//! The lane code of the list builder: the candidate filter and the row sort
//! of one atom's half row, in two legs that give the same bytes.
//!
//! * [`Scalar`] is the plain loop: each candidate's id is appended to the
//!   row and kept, without a branch, when its `r²` is below `reach²`; the
//!   row is then sorted by `sort_unstable`.
//! * [`Avx2`] tests [`LANES`] candidates per step, loaded straight from the
//!   cell-ordered copy (contiguous loads, a masked load for the tail), packs
//!   the kept ids to the front of the row with a byte shuffle from
//!   [`avx2::PACK`] and stores them all at once. It sorts a row of up to
//!   [`RANK_SORT_MAX`] ids with a rank sort: each id goes to the slot given
//!   by the count of ids below it, eight ids ranked per pass.
//!
//! Both legs give every row the same bytes (tested below on adversarial
//! entries):
//!
//! * per candidate, `d = (r_i − r_j) − s` and `r² = (dx·dx + dy·dy) + dz·dz`
//!   are separate IEEE multiplies and adds in both legs (Rust never
//!   contracts to FMA), and the ordered compare `r² < reach²`
//!   (`_CMP_LT_OQ`) is false on NaN like the scalar `<`;
//! * the shuffle keeps lane order, so a row holds the kept ids in the
//!   scalar loop's sequence, and its ids are distinct, so every correct
//!   sort gives the same bytes;
//! * a tail step masks its loads, so it reads nothing past the entry's last
//!   slot, and its keep mask, so an unloaded lane is never kept;
//! * the rank sort compares `id ^ 0x8000_0000` as `i32`, which is unsigned
//!   order, and counts only the row's ids: the padding lanes of a row's last
//!   group of eight are ranked but never counted or stored.
//!
//! The packed store writes all [`LANES`] ids of a step, so it may leave up
//! to three stale ids past the row's length: the row buffer keeps
//! [`LANES`] slots of slack. The kept count comes from the same table as
//! the shuffle, so the leg needs no POPCNT.

use super::CellOrder;
use std::ops::Range;

/// Candidates per lane step: one AVX2 register of `f64`.
pub(super) const LANES: usize = 4;

/// The longest row the AVX2 leg's rank sort sorts; a longer one goes to
/// `sort_unstable`, as every row does on the scalar leg. The rank sort does
/// ~n²/8 lane compares,
/// so it overtakes the comparison sort in the hundreds: on the 2-vCPU
/// Xeon it took 0.38 of `sort_unstable`'s time on rows of 32 ids, 0.86 on
/// 192 and 1.08 on 256. A half row of the benchmark crystal holds ~33.
pub(super) const RANK_SORT_MAX: usize = 224;

/// One leg of the lane code.
///
/// # Safety
/// For every method of [`Avx2`]: a CPU with AVX2.
pub(super) trait RowLanes: Copy {
    /// Appends to `row[len..]`, in slot order, the id of every candidate in
    /// `slots` of `order` whose displacement `(p − r_j) − shift` is within
    /// reach: `((p_x − x_j) − s_x)² + ((p_y − y_j) − s_y)² + ((p_z − z_j) −
    /// s_z)² < reach_sq`. Returns the row's new length; `row` past it holds
    /// unspecified ids.
    ///
    /// # Panics
    /// May panic unless `slots` lies within `order`'s arrays and `row` has
    /// room for `len + slots.len() + LANES` ids.
    ///
    /// # Safety
    /// See the trait.
    #[allow(clippy::too_many_arguments)]
    unsafe fn keep(
        self,
        order: &CellOrder<'_>,
        slots: Range<usize>,
        p: [f64; 3],
        shift: [f64; 3],
        reach_sq: f64,
        row: &mut [u32],
        len: usize,
    ) -> usize;

    /// Appends `row`'s ids to `out` in ascending order; `row` itself is
    /// scratch afterwards. The ids must be distinct.
    ///
    /// # Safety
    /// See the trait.
    unsafe fn sort_into(self, row: &mut [u32], out: &mut Vec<u32>);
}

/// The scalar leg: the candidate loop, one candidate at a time, and
/// `sort_unstable`.
#[derive(Debug, Clone, Copy)]
pub(super) struct Scalar;

impl RowLanes for Scalar {
    #[inline(always)]
    unsafe fn keep(
        self,
        order: &CellOrder<'_>,
        slots: Range<usize>,
        p: [f64; 3],
        shift: [f64; 3],
        reach_sq: f64,
        row: &mut [u32],
        mut len: usize,
    ) -> usize {
        let [xi, yi, zi] = p;
        let [sx, sy, sz] = shift;
        let js = order.x[slots.clone()]
            .iter()
            .zip(&order.y[slots.clone()])
            .zip(&order.z[slots.clone()])
            .zip(&order.ids[slots]);
        for (((&xj, &yj), &zj), &j) in js {
            let dx = (xi - xj) - sx;
            let dy = (yi - yj) - sy;
            let dz = (zi - zj) - sz;
            row[len] = j;
            len += (dx * dx + dy * dy + dz * dz < reach_sq) as usize;
        }
        len
    }

    #[inline(always)]
    unsafe fn sort_into(self, row: &mut [u32], out: &mut Vec<u32>) {
        row.sort_unstable();
        out.extend_from_slice(row);
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) use avx2::Avx2;

#[cfg(target_arch = "x86_64")]
pub(super) mod avx2 {
    use super::{CellOrder, RowLanes, LANES, RANK_SORT_MAX};
    use core::arch::x86_64::*;
    use std::ops::Range;

    /// The AVX2 leg: four candidates per register, eight ids per rank.
    #[derive(Debug, Clone, Copy)]
    pub(in super::super) struct Avx2;

    /// Lane masks: the four 64-bit lanes read from `TAIL64[4 − k..]` are all
    /// ones in the first `k` lanes and zero after (`0 ≤ k ≤ 4`).
    static TAIL64: [i64; 8] = [-1, -1, -1, -1, 0, 0, 0, 0];

    /// The same for 32-bit lanes: the `w` lanes read from `TAIL32[8 − k..]`
    /// are all ones in the first `k` (`0 ≤ k ≤ w ≤ 8`).
    static TAIL32: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

    /// The sign bit: `a ^ SIGN < b ^ SIGN` as `i32` exactly when `a < b` as
    /// `u32`.
    const SIGN: u32 = 0x8000_0000;

    /// The compaction of one lane step's keep mask `m` (bit `l` for lane
    /// `l`): the byte shuffle that moves the kept 32-bit lanes to the front
    /// in lane order, and how many there are.
    #[derive(Debug, Clone, Copy)]
    #[repr(C, align(16))]
    pub(super) struct Pack {
        pub(super) shuffle: [u8; 16],
        pub(super) kept: usize,
    }

    /// [`Pack`] for each of the 16 keep masks.
    pub(super) static PACK: [Pack; 16] = pack_table();

    const fn pack_table() -> [Pack; 16] {
        let mut table = [Pack {
            // 0x80 zeroes a byte: the lanes past the kept ones.
            shuffle: [0x80; 16],
            kept: 0,
        }; 16];
        let mut m = 0;
        while m < 16 {
            let mut kept = 0;
            let mut lane = 0;
            while lane < LANES {
                if m & (1 << lane) != 0 {
                    let mut b = 0;
                    while b < 4 {
                        table[m].shuffle[4 * kept + b] = (4 * lane + b) as u8;
                        b += 1;
                    }
                    kept += 1;
                }
                lane += 1;
            }
            table[m].kept = kept;
            m += 1;
        }
        table
    }

    /// The keep mask of one lane step, bit `l` for lane `l`: candidates
    /// `(x, y, z)` whose `((p_x − x) − s_x)² + … < reach²`.
    ///
    /// # Safety
    /// AVX2.
    #[inline(always)]
    unsafe fn within(
        p: &[__m256d; 3],
        shift: &[__m256d; 3],
        reach_sq: __m256d,
        [x, y, z]: [__m256d; 3],
    ) -> usize {
        // SAFETY: AVX2 is the caller's contract.
        unsafe {
            let dx = _mm256_sub_pd(_mm256_sub_pd(p[0], x), shift[0]);
            let dy = _mm256_sub_pd(_mm256_sub_pd(p[1], y), shift[1]);
            let dz = _mm256_sub_pd(_mm256_sub_pd(p[2], z), shift[2]);
            let r2 = _mm256_add_pd(
                _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)),
                _mm256_mul_pd(dz, dz),
            );
            _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(r2, reach_sq)) as usize
        }
    }

    /// Stores the ids of `ids` that the four-bit `mask` keeps at `dst`,
    /// packed to the front in lane order, and returns how many it kept.
    /// Writes all four slots `dst[..LANES]`.
    ///
    /// # Safety
    /// AVX2, and `dst` valid for writes of [`LANES`] `u32`s.
    #[inline(always)]
    unsafe fn pack(ids: __m128i, mask: usize, dst: *mut u32) -> usize {
        let pack = &PACK[mask];
        // SAFETY: the caller's; the table row is 16 bytes and 16-aligned.
        unsafe {
            let shuffle = _mm_load_si128(pack.shuffle.as_ptr().cast());
            _mm_storeu_si128(dst.cast(), _mm_shuffle_epi8(ids, shuffle));
        }
        pack.kept
    }

    impl RowLanes for Avx2 {
        #[inline(always)]
        unsafe fn keep(
            self,
            order: &CellOrder<'_>,
            slots: Range<usize>,
            p: [f64; 3],
            shift: [f64; 3],
            reach_sq: f64,
            row: &mut [u32],
            mut len: usize,
        ) -> usize {
            let x = &order.x[slots.clone()];
            let y = &order.y[slots.clone()];
            let z = &order.z[slots.clone()];
            let ids = &order.ids[slots];
            let n = ids.len();
            // One check for the whole entry, not one per packed store.
            assert!(
                len + n + LANES <= row.len(),
                "{n} candidates after {len} ids overflow a row buffer of {}",
                row.len()
            );
            let out = row.as_mut_ptr();
            // No closure below: one would not inherit the caller's AVX2,
            // and the intrinsics in it would compile as calls.
            // SAFETY: AVX2 is the caller's. The slices all hold `n` slots:
            // each full step loads four of them from `at < n − 3`, and the
            // tail step's masked loads read only its `n − at`, so nothing
            // past the entry is read. Each step keeps at most the
            // candidates it tested, so before a step `len` is at most the
            // entry's starting length plus `at < n`, and the step's four
            // stores end below that plus `n + LANES`, within `row` by the
            // assert.
            unsafe {
                let p = [
                    _mm256_set1_pd(p[0]),
                    _mm256_set1_pd(p[1]),
                    _mm256_set1_pd(p[2]),
                ];
                let shift = [
                    _mm256_set1_pd(shift[0]),
                    _mm256_set1_pd(shift[1]),
                    _mm256_set1_pd(shift[2]),
                ];
                let reach_sq = _mm256_set1_pd(reach_sq);
                let mut at = 0;
                while at + LANES <= n {
                    let xyz = [
                        _mm256_loadu_pd(x.as_ptr().add(at)),
                        _mm256_loadu_pd(y.as_ptr().add(at)),
                        _mm256_loadu_pd(z.as_ptr().add(at)),
                    ];
                    let mask = within(&p, &shift, reach_sq, xyz);
                    let id = _mm_loadu_si128(ids.as_ptr().add(at).cast());
                    len += pack(id, mask, out.add(len));
                    at += LANES;
                }
                let k = n - at;
                if k > 0 {
                    let lanes = _mm256_loadu_si256(TAIL64[LANES - k..].as_ptr().cast());
                    let xyz = [
                        _mm256_maskload_pd(x.as_ptr().add(at), lanes),
                        _mm256_maskload_pd(y.as_ptr().add(at), lanes),
                        _mm256_maskload_pd(z.as_ptr().add(at), lanes),
                    ];
                    // The unloaded lanes read as 0.0: drop them from the mask.
                    let mask = within(&p, &shift, reach_sq, xyz) & ((1 << k) - 1);
                    let id_lanes = _mm_loadu_si128(TAIL32[8 - k..].as_ptr().cast());
                    let id = _mm_maskload_epi32(ids.as_ptr().add(at).cast(), id_lanes);
                    len += pack(id, mask, out.add(len));
                }
            }
            len
        }

        #[inline(always)]
        unsafe fn sort_into(self, row: &mut [u32], out: &mut Vec<u32>) {
            let n = row.len();
            if n > RANK_SORT_MAX {
                row.sort_unstable();
                out.extend_from_slice(row);
                return;
            }
            for id in row.iter_mut() {
                *id ^= SIGN;
            }
            let base = out.len();
            out.resize(base + n, 0);
            let sorted = &mut out[base..];
            let mut rank = [0u32; 8];
            for g in (0..n).step_by(8) {
                let k = (n - g).min(8);
                // SAFETY: AVX2 is the caller's; the masked load reads only
                // the group's `k` ids of `row`, and the store writes the
                // whole `rank` array.
                unsafe {
                    let lanes = _mm256_loadu_si256(TAIL32[8 - k..].as_ptr().cast());
                    let keys = _mm256_maskload_epi32(row.as_ptr().add(g).cast(), lanes);
                    // Lane l counts the ids below its key: `keys > b` is −1.
                    let mut below = _mm256_setzero_si256();
                    for &b in row.iter() {
                        let b = _mm256_set1_epi32(b as i32);
                        below = _mm256_sub_epi32(below, _mm256_cmpgt_epi32(keys, b));
                    }
                    _mm256_storeu_si256(rank.as_mut_ptr().cast(), below);
                }
                for (&r, &id) in rank.iter().zip(&row[g..g + k]) {
                    sorted[r as usize] = id ^ SIGN;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use md_base::rng::Rng;

    /// The row `leg` keeps from `slots`, after `prefix` ids already in it.
    #[allow(clippy::too_many_arguments)]
    fn kept<L: RowLanes>(
        leg: L,
        order: &CellOrder<'_>,
        slots: Range<usize>,
        p: [f64; 3],
        shift: [f64; 3],
        reach_sq: f64,
        prefix: &[u32],
    ) -> Vec<u32> {
        let mut row = vec![u32::MAX; prefix.len() + slots.len() + LANES];
        row[..prefix.len()].copy_from_slice(prefix);
        // SAFETY: the row has the slack; the caller checked AVX2 before
        // passing that leg.
        let len = unsafe { leg.keep(order, slots, p, shift, reach_sq, &mut row, prefix.len()) };
        row.truncate(len);
        row
    }

    /// `ids` sorted by `leg`, appended after a marker.
    fn sorted<L: RowLanes>(leg: L, ids: &[u32]) -> Vec<u32> {
        let mut row = ids.to_vec();
        let mut out = vec![7];
        // SAFETY: the caller checked AVX2 before passing that leg.
        unsafe { leg.sort_into(&mut row, &mut out) };
        assert_eq!(out[0], 7, "the marker before the row survives");
        out.split_off(1)
    }

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
    fn legs_keep_the_same_rows_on_adversarial_entries() {
        eprintln!(
            "legs_keep_the_same_rows_on_adversarial_entries: SKIPPED, no AVX2 leg off x86-64"
        );
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn rank_sort_equals_sort_unstable() {
        eprintln!("rank_sort_equals_sort_unstable: SKIPPED, no AVX2 leg off x86-64");
    }

    /// Both legs keep the same rows from entries built to break a lane
    /// filter. The atom sits at `p`; on a box of edge `L = 20` (x and y
    /// periodic, z open) the candidates are:
    /// - at separations `√reach_sq` exactly (rejected) and one ulp of `r²`
    ///   below and above it, reached through the shifts `0` and `±L` on the
    ///   periodic axes;
    /// - points that only a wrong shift or an unshifted open axis would
    ///   keep;
    /// - ±∞ and NaN coordinates, which no leg may keep.
    ///
    /// Every suffix length 0–9 runs from several starts, so every tail mask
    /// runs, after a prefix of 0 or 3 ids already in the row. The slots
    /// past an entry hold other candidates, many in reach, and those past
    /// the last one the atom's own position under new ids, so a leg that
    /// read past an entry's end would keep them.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn legs_keep_the_same_rows_on_adversarial_entries() {
        let Some(avx2) = avx2_or_skip("legs_keep_the_same_rows_on_adversarial_entries") else {
            return;
        };
        let l = 20.0;
        let p = [1.25, 18.5, 3.0];
        let reach = 2.5f64;
        let mut pts: Vec<[f64; 3]> = Vec::new();
        // Exactly at reach along x, through the shifts 0, +L and −L: the
        // scalar expression gives `r² = reach²` bit for bit.
        for s in [0.0, l, -l] {
            pts.push([p[0] - reach - s, p[1], p[2]]);
            pts.push([p[0] + reach - s, p[1], p[2]]);
        }
        // (3, 4, 0)·0.5: r² = 6.25 = reach² exactly.
        pts.push([p[0] - 1.5, p[1] - 2.0, p[2]]);
        // Beyond reach only along the open z axis; a shift there would wrap it.
        pts.push([p[0], p[1], p[2] + l - 1.0]);
        pts.push([p[0], p[1], p[2] - reach]);
        // Non-finite coordinates.
        pts.push([f64::INFINITY, p[1], p[2]]);
        pts.push([p[0], f64::NAN, p[2]]);
        pts.push([p[0], p[1], f64::NEG_INFINITY]);
        // Random points around the atom's images through each shift.
        let mut rng = Rng::new(23);
        for k in 0..45 {
            let (sx, sy) = ([0.0, l, -l][k % 3], [0.0, l, -l][(k / 3) % 3]);
            pts.push([
                p[0] - sx + rng.uniform(-2.2, 2.2),
                p[1] - sy + rng.uniform(-2.2, 2.2),
                p[2] + rng.uniform(-2.2, 2.2),
            ]);
        }
        let n = pts.len();
        // After the last slot: the atom's own position, always in reach.
        let spill = 12;
        let col = |d: usize| -> Vec<f64> {
            pts.iter()
                .map(|q| q[d])
                .chain(std::iter::repeat_n(p[d], spill))
                .collect()
        };
        let ids: Vec<u32> = (0..(n + spill) as u32).map(|k| 1000 + 7 * k).collect();
        let cells = Csr::empty(0);
        let order = CellOrder {
            cells: &cells,
            ids: &ids,
            x: col(0),
            y: col(1),
            z: col(2),
        };
        let r2_of = |q: [f64; 3], s: [f64; 3]| {
            let d = [
                (p[0] - q[0]) - s[0],
                (p[1] - q[1]) - s[1],
                (p[2] - q[2]) - s[2],
            ];
            d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
        };
        assert_eq!(
            r2_of(pts[0], [0.0; 3]),
            reach * reach,
            "the exact-reach candidate"
        );
        assert_eq!(
            r2_of(pts[6], [0.0; 3]),
            reach * reach,
            "the 3-4-5 candidate"
        );
        let reach_sq = reach * reach;
        let mut counts = [0usize; 2];
        for shift in [
            [0.0; 3],
            [l, 0.0, 0.0],
            [-l, 0.0, 0.0],
            [0.0, l, 0.0],
            [l, -l, 0.0],
        ] {
            for r2 in [reach_sq, reach_sq.next_down(), reach_sq.next_up()] {
                for len in 0..=9 {
                    for start in (0..n - len).step_by(3).chain([n - len]) {
                        for prefix in [&[][..], &[1, 2, 3][..]] {
                            let slots = start..start + len;
                            let a = kept(avx2, &order, slots.clone(), p, shift, r2, prefix);
                            let s = kept(Scalar, &order, slots.clone(), p, shift, r2, prefix);
                            assert_eq!(a, s, "slots {slots:?} shift {shift:?} reach² {r2}");
                            // And both are the plain filter.
                            let want: Vec<u32> = prefix
                                .iter()
                                .copied()
                                .chain(slots.filter(|&k| r2_of(pts[k], shift) < r2).map(|k| ids[k]))
                                .collect();
                            assert_eq!(s, want, "slots {start}.. shift {shift:?} reach² {r2}");
                            counts[0] += s.len() - prefix.len();
                            counts[1] += len + prefix.len() - s.len();
                        }
                    }
                }
            }
            // The exact-reach candidates through this shift: rejected at
            // reach², kept one ulp above, rejected one ulp below.
            for k in [0, 1, 2, 3, 4, 5, 6] {
                if r2_of(pts[k], shift) == reach_sq {
                    for (r2, keep) in [
                        (reach_sq, false),
                        (reach_sq.next_up(), true),
                        (reach_sq.next_down(), false),
                    ] {
                        let a = kept(avx2, &order, k..k + 1, p, shift, r2, &[]);
                        assert_eq!(
                            a,
                            if keep { vec![ids[k]] } else { vec![] },
                            "candidate {k} reach² {r2}"
                        );
                    }
                }
            }
        }
        assert!(
            counts[0] > 1000 && counts[1] > 1000,
            "kept and rejected both covered: {counts:?}"
        );
    }

    /// The rank sort equals `sort_unstable` on distinct ids of every length
    /// from 0 to past [`RANK_SORT_MAX`] (where it falls back), drawn around
    /// and above 2³¹ so the sign-flipped compare must give unsigned order.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn rank_sort_equals_sort_unstable() {
        let Some(avx2) = avx2_or_skip("rank_sort_equals_sort_unstable") else {
            return;
        };
        let mut rng = Rng::new(31);
        let pool: Vec<u32> = (0..RANK_SORT_MAX as u32 + 40)
            .flat_map(|k| {
                [
                    k,
                    (1 << 31) - 1 - k,
                    (1 << 31) + k,
                    u32::MAX - k,
                    0x4000_0000 + 3 * k,
                ]
            })
            .collect();
        for n in 0..=RANK_SORT_MAX + 20 {
            let mut ids = pool.clone();
            // A random `n` of the distinct pool, in random order.
            for k in 0..n {
                let pick = k + rng.below((ids.len() - k) as u64) as usize;
                ids.swap(k, pick);
            }
            ids.truncate(n);
            let mut want = ids.clone();
            want.sort_unstable();
            assert_eq!(sorted(avx2, &ids), want, "{n} ids");
            assert_eq!(sorted(Scalar, &ids), want, "{n} ids, scalar leg");
        }
    }

    /// The compaction table: each mask's shuffle moves the kept lanes to
    /// the front in lane order and counts them.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn pack_table_keeps_lane_order() {
        for (m, pack) in avx2::PACK.iter().enumerate() {
            let lanes: Vec<usize> = (0..LANES).filter(|l| m & (1 << l) != 0).collect();
            assert_eq!(pack.kept, lanes.len(), "mask {m:04b}");
            for (k, &l) in lanes.iter().enumerate() {
                let want: Vec<u8> = (0..4).map(|b| (4 * l + b) as u8).collect();
                assert_eq!(pack.shuffle[4 * k..4 * k + 4], want[..], "mask {m:04b}");
            }
        }
    }
}
