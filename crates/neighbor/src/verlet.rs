//! Verlet neighbor lists.
//!
//! A Verlet list (Verlet 1967, the paper's ref. 2) records, for every atom,
//! the indices of all atoms within `cutoff + skin`. The *skin* margin lets a
//! list survive several time-steps: it only needs rebuilding once some atom
//! has moved further than `skin / 2` since the list was built (two atoms
//! approaching head-on close the gap at twice the single-atom rate).
//!
//! Two list shapes are provided:
//!
//! * [`NeighborListKind::Half`] — each pair `(i, j)` stored once, under
//!   `min(i, j)`. Force kernels then apply Newton's third law, writing to
//!   **both** `i` and `j` — the irregular scatter the paper's SDC method
//!   parallelizes.
//! * [`NeighborListKind::Full`] — each pair stored in both rows. Kernels
//!   only ever write to their own row (gather form); this doubles the pair
//!   computations and the list memory, which is exactly the paper's
//!   *Redundant Computation* (RC) baseline.

use crate::cell_grid::CellGrid;
use crate::csr::{Csr, PAR_MIN_CHUNK};
use crate::stats::NeighborStats;
use lanes::{RowLanes, Scalar, LANES};
use md_base::pool::{self, SharedSlice};
use md_geometry::{SimBox, Vec3};
use std::ops::Range;

mod lanes;

/// Cell blocks per worker in the list build: enough for dynamic balancing,
/// few enough that each block's row buffer stays large.
const BLOCKS_PER_WORKER: usize = 8;

/// Whether each pair is stored once (half) or twice (full).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NeighborListKind {
    /// Pair `(i, j)` with `i < j` stored once in row `i`.
    Half,
    /// Pair stored in both row `i` and row `j`.
    Full,
}

/// Parameters for building a [`NeighborList`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VerletConfig {
    /// Interaction cutoff `r_c` (Å).
    pub cutoff: f64,
    /// Extra skin margin (Å); the list holds all pairs within
    /// `cutoff + skin`.
    pub skin: f64,
    /// Half or full list.
    pub kind: NeighborListKind,
}

impl VerletConfig {
    /// Half list with the given cutoff and skin.
    pub fn half(cutoff: f64, skin: f64) -> VerletConfig {
        VerletConfig {
            cutoff,
            skin,
            kind: NeighborListKind::Half,
        }
    }

    /// Full list with the given cutoff and skin.
    pub fn full(cutoff: f64, skin: f64) -> VerletConfig {
        VerletConfig {
            cutoff,
            skin,
            kind: NeighborListKind::Full,
        }
    }

    /// The list radius `cutoff + skin`.
    #[inline]
    pub fn reach(&self) -> f64 {
        self.cutoff + self.skin
    }

    fn validate(&self) {
        assert!(
            self.cutoff > 0.0 && self.cutoff.is_finite(),
            "cutoff must be positive, got {}",
            self.cutoff
        );
        assert!(
            self.skin >= 0.0 && self.skin.is_finite(),
            "skin must be non-negative, got {}",
            self.skin
        );
    }
}

/// A built Verlet neighbor list in CSR form.
///
/// ```
/// use md_geometry::LatticeSpec;
/// use md_neighbor::{NeighborList, VerletConfig};
///
/// let (sim_box, positions) = LatticeSpec::bcc_fe(5).build();
/// let list = NeighborList::build(&sim_box, &positions, VerletConfig::half(5.67, 0.0));
/// // Perfect BCC iron: 58 neighbors within 5.67 Å, so the half list
/// // stores 29 pairs per atom (each pair once).
/// assert_eq!(list.entries(), positions.len() * 29);
/// assert_eq!(list.to_full().stats().min, 58);
/// assert!(!list.needs_rebuild(&sim_box, &positions));
/// ```
#[derive(Debug, Clone)]
pub struct NeighborList {
    config: VerletConfig,
    csr: Csr,
    /// Atom positions at build time, for the displacement rebuild check.
    ref_positions: Vec<Vec3>,
}

impl NeighborList {
    /// Builds a neighbor list with linked-cell binning: O(N) for homogeneous
    /// systems.
    ///
    /// Runs on the current pool: inside `Pool::install` the cells are spread
    /// over the pool's workers, outside one the build runs on the calling
    /// thread. Either way the list is byte for byte the one
    /// [`NeighborList::build_brute_force`] returns; `half_rows` below holds
    /// the argument. A full list is the half list passed through
    /// [`NeighborList::to_full`].
    ///
    /// `positions` must be wrapped into the primary image of `sim_box`, and
    /// every periodic box edge must be at least `2 · (cutoff + skin)` so the
    /// minimum-image convention resolves each pair to a unique image.
    ///
    /// # Panics
    /// Panics on invalid config, if the box is too small for the reach, or
    /// if an open box edge is shorter than the binning cell,
    /// `(cutoff + skin) · (1 + 1e-9)`.
    pub fn build(sim_box: &SimBox, positions: &[Vec3], config: VerletConfig) -> NeighborList {
        NeighborList::build_in(sim_box, positions, config, None)
    }

    /// [`NeighborList::build`]'s half list with its rows laid out in
    /// `order`: row `order[0]` fills the first slots of the CSR, and each
    /// next row starts where the previous one ends. A sweep that visits the
    /// rows in `order` then reads the neighbour ids front to back. Each row
    /// holds the bytes [`NeighborList::build`] gives it; only where it sits
    /// changes ([`Csr::window`]).
    ///
    /// # Panics
    /// As [`NeighborList::build`]; also unless `config` is a half list and
    /// `order` a permutation of `0..positions.len()`.
    pub fn build_laid_out(
        sim_box: &SimBox,
        positions: &[Vec3],
        config: VerletConfig,
        order: &[u32],
    ) -> NeighborList {
        assert_eq!(
            config.kind,
            NeighborListKind::Half,
            "only a half list is laid out"
        );
        NeighborList::build_in(sim_box, positions, config, Some(order))
    }

    /// This half list with its rows laid out in `order`: the builder of
    /// [`NeighborList::build_laid_out`] run again on the positions this list
    /// was built from, so every row keeps its bytes and the rebuild check
    /// its reference. `sim_box` must be the box it was built in.
    ///
    /// # Panics
    /// As [`NeighborList::build_laid_out`].
    pub fn laid_out(&self, sim_box: &SimBox, order: &[u32]) -> NeighborList {
        NeighborList::build_laid_out(sim_box, &self.ref_positions, self.config, order)
    }

    /// [`NeighborList::build`] with the half rows laid out in `order`, in
    /// atom order when `None`.
    fn build_in(
        sim_box: &SimBox,
        positions: &[Vec3],
        config: VerletConfig,
        order: Option<&[u32]>,
    ) -> NeighborList {
        config.validate();
        sim_box
            .validate_cutoff(config.reach())
            .expect("box too small for cutoff + skin");
        NeighborList::from_half(
            config,
            half_rows(sim_box, positions, config.reach(), order),
            positions,
        )
    }

    /// [`NeighborList::build`] under its former name.
    #[doc(hidden)]
    pub fn build_parallel(
        sim_box: &SimBox,
        positions: &[Vec3],
        config: VerletConfig,
    ) -> NeighborList {
        NeighborList::build(sim_box, positions, config)
    }

    /// A list of `config`'s kind over no atoms: what an owner holds in
    /// place of a list it frees before building the next one.
    pub fn empty(config: VerletConfig) -> NeighborList {
        NeighborList {
            config,
            csr: Csr::empty(0),
            ref_positions: Vec::new(),
        }
    }

    /// Reference O(N²) builder: every pair `i < j` through
    /// [`SimBox::distance_sq`]. Tests hold [`NeighborList::build`] to its
    /// bytes.
    pub fn build_brute_force(
        sim_box: &SimBox,
        positions: &[Vec3],
        config: VerletConfig,
    ) -> NeighborList {
        config.validate();
        let reach_sq = config.reach() * config.reach();
        let mut offsets = vec![0u32];
        let mut indices = Vec::new();
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                if sim_box.distance_sq(positions[i], positions[j]) < reach_sq {
                    indices.push(j as u32);
                }
            }
            offsets.push(u32::try_from(indices.len()).expect("CSR entry count overflows u32"));
        }
        NeighborList::from_half(config, Csr::from_raw(offsets, indices), positions)
    }

    /// The list of `config`'s kind whose half form is `half`.
    fn from_half(config: VerletConfig, half: Csr, positions: &[Vec3]) -> NeighborList {
        let csr = match config.kind {
            NeighborListKind::Half => half,
            NeighborListKind::Full => half.symmetrized(),
        };
        NeighborList {
            config,
            csr,
            ref_positions: positions.to_vec(),
        }
    }

    /// The build configuration.
    #[inline]
    pub fn config(&self) -> VerletConfig {
        self.config
    }

    /// Half or full.
    #[inline]
    pub fn kind(&self) -> NeighborListKind {
        self.config.kind
    }

    /// Interaction cutoff `r_c`.
    #[inline]
    pub fn cutoff(&self) -> f64 {
        self.config.cutoff
    }

    /// Number of atoms the list covers.
    #[inline]
    pub fn atoms(&self) -> usize {
        self.csr.rows()
    }

    /// Neighbors of atom `i`.
    #[inline]
    pub fn neighbors(&self, i: usize) -> &[u32] {
        self.csr.row(i)
    }

    /// The underlying CSR adjacency.
    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// Number of stored pair entries (half list: one per pair; full: two).
    #[inline]
    pub fn entries(&self) -> usize {
        self.csr.entries()
    }

    /// `true` once some atom has drifted more than `skin / 2` from its
    /// position at build time, i.e. the list may now miss a pair within
    /// `cutoff` and must be rebuilt before the next force evaluation.
    pub fn needs_rebuild(&self, sim_box: &SimBox, positions: &[Vec3]) -> bool {
        assert_eq!(
            positions.len(),
            self.ref_positions.len(),
            "atom count changed since list build"
        );
        let limit_sq = (self.config.skin * 0.5) * (self.config.skin * 0.5);
        positions
            .iter()
            .zip(&self.ref_positions)
            .any(|(&p, &q)| sim_box.distance_sq(p, q) > limit_sq)
    }

    /// Converts this list to the full (symmetric) form. No-op on full lists.
    pub fn to_full(&self) -> NeighborList {
        match self.config.kind {
            NeighborListKind::Full => self.clone(),
            NeighborListKind::Half => NeighborList {
                config: VerletConfig {
                    kind: NeighborListKind::Full,
                    ..self.config
                },
                csr: self.csr.symmetrized(),
                ref_positions: self.ref_positions.clone(),
            },
        }
    }

    /// Per-atom neighbor count statistics.
    pub fn stats(&self) -> NeighborStats {
        NeighborStats::of_csr(&self.csr)
    }

    /// Heap bytes consumed by the list (paper §I: EAM neighbor-list memory
    /// pressure; the RC baseline's full list doubles this).
    pub fn heap_bytes(&self) -> usize {
        self.csr.heap_bytes() + self.ref_positions.capacity() * std::mem::size_of::<Vec3>()
    }
}

/// Relative margin on the binning cell edge. With cells of edge exactly
/// `reach`, rounding in the binning can put an atom an ulp across a face,
/// and the nearest image of a neighbour then sits two cells away, outside
/// the stencil. Rounding errors are ~1e-16 relative, far inside the margin.
const BIN_MARGIN: f64 = 1.0 + 1e-9;

/// Cells listed in cell order, with the positions copied alongside: slot
/// `p` holds atom `ids[p]` at `(x[p], y[p], z[p])`, and cell `c` fills slots
/// `cells.window(c)` with ascending ids.
struct CellOrder<'g> {
    cells: &'g Csr,
    ids: &'g [u32],
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
}

impl<'g> CellOrder<'g> {
    /// `grid`'s cells with the coordinates of `positions` copied alongside.
    fn new(grid: &'g CellGrid, positions: &[Vec3]) -> CellOrder<'g> {
        let ids = grid.cells().indices();
        let coord = |d: usize| ids.iter().map(|&a| positions[a as usize][d]).collect();
        CellOrder {
            cells: grid.cells(),
            ids,
            x: coord(0),
            y: coord(1),
            z: coord(2),
        }
    }

    /// The slots of the non-empty run of cells `cells`: the cell CSR is in
    /// row order, so they span the first cell's window to the last one's.
    fn slots(&self, cells: Range<usize>) -> Range<usize> {
        self.cells.window(cells.start).start..self.cells.window(cells.end - 1).end
    }
}

/// One entry of a cell's stencil: the slots `cursor..end` of a neighbouring
/// cell still to scan, and the periodic shift `s` that turns `r_i − r_j`
/// into the displacement to that cell's image, `(r_i − r_j) − s`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Image {
    cursor: usize,
    end: usize,
    shift: [f64; 3],
}

/// The images along one axis of cell coordinate `k` on an `n`-cell axis of
/// length `l`: offsets −1, 0 and +1. On a periodic axis an offset that
/// leaves the grid wraps and shifts by ∓`l`; on an open axis it is dropped.
/// The (cell, shift) pairs are distinct even where the cells are not (one-
/// or two-cell periodic axes), and each is kept.
fn axis_images(k: usize, n: usize, l: f64, periodic: bool) -> ([(usize, f64); 3], usize) {
    let mut out = [(0, 0.0); 3];
    let mut len = 0;
    for m in [k as isize - 1, k as isize, k as isize + 1] {
        let (m, shift) = if m < 0 {
            (m + n as isize, -l)
        } else if m >= n as isize {
            (m - n as isize, l)
        } else {
            (m, 0.0)
        };
        if shift == 0.0 || periodic {
            out[len] = (m as usize, shift);
            len += 1;
        }
    }
    (out, len)
}

/// The (cell, shift) stencil of cell `c`: every combination of the three
/// axes' images, up to 27, without the empty cells.
fn stencil(grid: &CellGrid, sim_box: &SimBox, order: &CellOrder, c: usize) -> ([Image; 27], usize) {
    let (dims, lengths, periodic) = (grid.dims(), sim_box.lengths(), sim_box.periodicity());
    let coords = grid.cell_coords(c);
    let [(xs, nx), (ys, ny), (zs, nz)] =
        [0, 1, 2].map(|d| axis_images(coords[d], dims[d], lengths[d], periodic[d]));
    let mut out = [Image::default(); 27];
    let mut len = 0;
    for &(mx, sx) in &xs[..nx] {
        for &(my, sy) in &ys[..ny] {
            for &(mz, sz) in &zs[..nz] {
                let cell = grid.cell_id(mx, my, mz);
                let slots = order.slots(cell..cell + 1);
                if !slots.is_empty() {
                    out[len] = Image {
                        cursor: slots.start,
                        end: slots.end,
                        shift: [sx, sy, sz],
                    };
                    len += 1;
                }
            }
        }
    }
    (out, len)
}

/// Cell blocks the list build splits `n_cells` cells of `atoms` atoms into
/// on `workers` workers: [`BLOCKS_PER_WORKER`] per worker, but none with
/// fewer than [`PAR_MIN_CHUNK`] atoms on average, so a small system is one
/// block and builds inline without starting a parallel region.
fn block_count(atoms: usize, n_cells: usize, workers: usize) -> usize {
    (workers * BLOCKS_PER_WORKER)
        .min(atoms / PAR_MIN_CHUNK)
        .clamp(1, n_cells)
}

/// The half list `{j > i : |(r_i − r_j)|_min-image < reach}` of every atom
/// `i`, rows ascending, built on the current pool.
///
/// Atoms are binned into cells of edge ≥ `reach · BIN_MARGIN` and copied
/// into cell order. For each atom `i` of a cell, every (cell, shift) entry
/// of the cell's [`stencil`] is scanned from its cursor, the first slot
/// with an id above `i`: ids ascend within a cell, so as `i` walks its cell
/// each cursor only moves forward, and no pair is evaluated twice. A
/// candidate `j` is kept, without a branch, when
/// `((x_i − x_j) − s_x)² + ((y_i − y_j) − s_y)² + ((z_i − z_j) − s_z)² <
/// reach²`.
///
/// This is the brute force's comparison bit for bit:
/// - `(x_i − x_j) − s` is what [`SimBox::min_image`] computes when it wraps
///   by `s`, and the sum keeps [`Vec3::norm_sq`]'s order;
/// - a pair within reach under the minimum image lies in adjacent cells,
///   and the stencil holds that cell with the minimum image's shift;
/// - any other image is at least `L/2 ≥ reach` away on the shifted axis, so
///   it is rejected under monotone rounding, as it is by the brute force.
///   With `L ≥ 2·reach` at most one image of `j` is accepted.
///
/// The filter and the row sort run on the lane leg [`block_rows`] picks;
/// both legs give each row the same bytes ([`lanes`]). Cell blocks are
/// spread over the workers. The windows are the prefix sum of the row
/// lengths taken in `layout` (atom order when `None`, see
/// [`Csr::with_row_lens`]), and each block copies its rows into their
/// windows, so neither the leg, the schedule nor the thread count can
/// change a byte, and the layout moves no row byte.
fn half_rows(sim_box: &SimBox, positions: &[Vec3], reach: f64, layout: Option<&[u32]>) -> Csr {
    let reach_sq = reach * reach;
    let grid = &CellGrid::build_parallel(sim_box, positions, reach * BIN_MARGIN);
    let order = &CellOrder::new(grid, positions);
    let n_cells = grid.cell_count();
    let per_block = n_cells.div_ceil(block_count(
        positions.len(),
        n_cells,
        pool::current_threads(),
    ));
    let n_blocks = n_cells.div_ceil(per_block);
    let cells_of = |b: usize| b * per_block..((b + 1) * per_block).min(n_cells);
    let slots_of = |b: usize| order.slots(cells_of(b));

    // Per block: its atoms' rows back to back, and each row's length, in
    // slot order.
    let blocks: Vec<(Vec<u32>, Vec<u32>)> = pool::map_collect(n_blocks, |b| {
        block_rows(grid, sim_box, order, cells_of(b), reach_sq)
    });

    // Every atom's row length (cells partition the atoms, so every atom
    // gets exactly one), then the windows laid out in `layout`.
    let mut row_len = vec![0u32; positions.len()];
    for (b, (_, lens)) in blocks.iter().enumerate() {
        for (&a, &len) in order.ids[slots_of(b)].iter().zip(lens) {
            row_len[a as usize] = len;
        }
    }
    let mut csr = Csr::with_row_lens(row_len, layout);
    let (start, end, indices) = csr.rows_mut();
    let out = SharedSlice::new(indices);
    pool::for_each(n_blocks, |b| {
        let rows = &blocks[b].0;
        let mut at = 0;
        for &a in &order.ids[slots_of(b)] {
            let (lo, hi) = (start[a as usize] as usize, end[a as usize] as usize);
            // SAFETY: lo..hi is atom a's row window; the windows of
            // distinct atoms are disjoint, and every atom belongs to
            // exactly one block.
            unsafe { out.slice_mut(lo, hi) }.copy_from_slice(&rows[at..at + (hi - lo)]);
            at += hi - lo;
        }
    });
    csr
}

/// The rows of the atoms of `cells`, on the lane leg md-base's
/// [`simd_active`](md_base::simd::simd_active) picks: AVX2 or [`Scalar`],
/// both through [`block_rows_in`].
fn block_rows(
    grid: &CellGrid,
    sim_box: &SimBox,
    order: &CellOrder<'_>,
    cells: Range<usize>,
    reach_sq: f64,
) -> (Vec<u32>, Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    if md_base::simd::simd_active() {
        // SAFETY: `simd_active` found AVX2.
        return unsafe { block_rows_avx2(grid, sim_box, order, cells, reach_sq) };
    }
    // SAFETY: the scalar leg needs nothing.
    unsafe { block_rows_in(Scalar, grid, sim_box, order, cells, reach_sq) }
}

/// [`block_rows_in`] compiled for AVX2, on the [`lanes::Avx2`] leg.
///
/// # Safety
/// A CPU with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn block_rows_avx2(
    grid: &CellGrid,
    sim_box: &SimBox,
    order: &CellOrder<'_>,
    cells: Range<usize>,
    reach_sq: f64,
) -> (Vec<u32>, Vec<u32>) {
    // SAFETY: the caller's AVX2.
    unsafe { block_rows_in(lanes::Avx2, grid, sim_box, order, cells, reach_sq) }
}

/// The body of one cell block of [`half_rows`]: for each atom of `cells`,
/// in slot order, its row (the kept candidates of every stencil entry,
/// sorted) appended to the first vector and its length to the second.
///
/// Keep the loops free of closures: one would not inherit the AVX2 of
/// [`block_rows_avx2`], and the lane code would compile as calls.
///
/// # Safety
/// An [`lanes::Avx2`] leg needs AVX2.
#[inline(always)]
unsafe fn block_rows_in<L: RowLanes>(
    lanes: L,
    grid: &CellGrid,
    sim_box: &SimBox,
    order: &CellOrder<'_>,
    cells: Range<usize>,
    reach_sq: f64,
) -> (Vec<u32>, Vec<u32>) {
    let (mut rows, mut lens) = (Vec::new(), Vec::new());
    // Row scratch, as long as a cell's stencil has candidates plus the
    // lanes' slack, so the branch-free appends always write in bounds.
    let mut row: Vec<u32> = Vec::new();
    for c in cells {
        let (mut images, n_images) = stencil(grid, sim_box, order, c);
        let images = &mut images[..n_images];
        let mut candidates = LANES;
        for e in images.iter() {
            candidates += e.end - e.cursor;
        }
        if row.len() < candidates {
            row.resize(candidates, 0);
        }
        for p in order.slots(c..c + 1) {
            let i = order.ids[p];
            let pi = [order.x[p], order.y[p], order.z[p]];
            let mut len = 0;
            for e in images.iter_mut() {
                while e.cursor < e.end && order.ids[e.cursor] <= i {
                    e.cursor += 1;
                }
                // SAFETY: the row has room for every candidate plus the
                // slack; AVX2 is the caller's.
                len = unsafe {
                    lanes.keep(order, e.cursor..e.end, pi, e.shift, reach_sq, &mut row, len)
                };
            }
            let at = rows.len();
            // SAFETY: AVX2 is the caller's; a row's ids are distinct.
            unsafe { lanes.sort_into(&mut row[..len], &mut rows) };
            debug_assert!(
                rows[at..].windows(2).all(|w| w[0] < w[1]),
                "row {i} is not strictly ascending: {:?}",
                &rows[at..]
            );
            lens.push(len as u32);
        }
    }
    (rows, lens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_geometry::LatticeSpec;

    const FE_CUTOFF: f64 = 5.67;

    fn pair_set(nl: &NeighborList) -> Vec<(u32, u32)> {
        let mut v: Vec<(u32, u32)> = nl
            .csr()
            .iter_rows()
            .flat_map(|(i, r)| r.iter().map(move |&j| (i as u32, j)))
            .collect();
        v.sort_unstable();
        v
    }

    /// `build` on a `threads`-worker pool, held byte for byte to the brute
    /// force.
    fn assert_brute_force_bytes(bx: &SimBox, pos: &[Vec3], cfg: VerletConfig, threads: usize) {
        let fast = pool::Pool::new(threads).install(|| NeighborList::build(bx, pos, cfg));
        let slow = NeighborList::build_brute_force(bx, pos, cfg);
        assert_eq!(fast.csr(), slow.csr(), "{cfg:?} at {threads} threads");
    }

    #[test]
    fn cell_build_matches_brute_force_half() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        assert_brute_force_bytes(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.3), 1);
    }

    #[test]
    fn cell_build_matches_brute_force_full() {
        let (bx, pos) = LatticeSpec::bcc_fe(4).build();
        assert_brute_force_bytes(&bx, &pos, VerletConfig::full(FE_CUTOFF, 0.0), 1);
    }

    #[test]
    fn build_is_byte_equal_to_brute_force_at_1_2_and_4_threads() {
        // bcc_fe(12) = 3456 atoms: three cell blocks, so the parallel
        // scan and the window copy both run. Rattled off the lattice.
        let (bx, mut pos) = LatticeSpec::bcc_fe(12).build();
        for (k, p) in pos.iter_mut().enumerate() {
            let k = k as f64;
            *p = bx.wrap(
                *p + Vec3::new((0.917 * k).sin(), (1.311 * k).cos(), (2.113 * k).sin()) * 0.2,
            );
        }
        for threads in [1usize, 2, 4] {
            for cfg in [
                VerletConfig::half(FE_CUTOFF, 0.3),
                VerletConfig::full(FE_CUTOFF, 0.3),
            ] {
                assert_brute_force_bytes(&bx, &pos, cfg, threads);
            }
        }
    }

    #[test]
    fn small_system_is_one_block_and_matches_brute_force() {
        // A 6³-cell job (432 atoms) builds inline even on a 4-worker pool.
        assert_eq!(block_count(432, 27, 4), 1);
        assert_eq!(block_count(65_536, 3375, 2), 2 * BLOCKS_PER_WORKER);
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        for threads in [1usize, 2, 4] {
            assert_brute_force_bytes(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.3), threads);
        }
    }

    /// Both lane legs build every row of a rattled crystal with the same
    /// bytes: at the benchmark's reach, and at a reach long enough that
    /// some rows pass [`lanes::RANK_SORT_MAX`] and the AVX2 leg falls back
    /// to `sort_unstable` for them. Prints SKIPPED on a host without AVX2.
    #[test]
    fn lane_legs_build_the_same_rows() {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            let (bx, mut pos) = LatticeSpec::bcc_fe(8).build();
            let mut rng = md_base::rng::Rng::new(5);
            for p in pos.iter_mut() {
                let kick = Vec3::new(
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0),
                    rng.uniform(-1.0, 1.0),
                );
                *p = bx.wrap(*p + kick * 0.3);
            }
            for reach in [FE_CUTOFF + 0.3, 11.0] {
                let grid = CellGrid::build(&bx, &pos, reach * BIN_MARGIN);
                let order = CellOrder::new(&grid, &pos);
                let cells = 0..grid.cell_count();
                let r2 = reach * reach;
                // SAFETY: the host has AVX2 (checked above); the scalar
                // leg needs nothing.
                let avx2 = unsafe { block_rows_avx2(&grid, &bx, &order, cells.clone(), r2) };
                let scalar = unsafe { block_rows_in(Scalar, &grid, &bx, &order, cells, r2) };
                assert_eq!(avx2, scalar, "reach {reach}");
                let longest = scalar.1.iter().max().copied().unwrap_or(0) as usize;
                if reach > 10.0 {
                    assert!(longest > lanes::RANK_SORT_MAX, "longest row {longest}");
                }
            }
            return;
        }
        eprintln!("lane_legs_build_the_same_rows: SKIPPED, this host has no AVX2 leg");
    }

    #[test]
    fn interior_cell_stencil_has_27_unshifted_images() {
        let bx = SimBox::cubic(12.0);
        let pos: Vec<Vec3> = (0..64)
            .map(|k| {
                Vec3::new((k % 4) as f64, ((k / 4) % 4) as f64, (k / 16) as f64) * 3.0
                    + Vec3::splat(1.5)
            })
            .collect();
        let grid = CellGrid::build(&bx, &pos, 2.9); // 4×4×4, one atom per cell
        let order = CellOrder::new(&grid, &pos);
        let (images, len) = stencil(&grid, &bx, &order, grid.cell_id(1, 1, 1));
        assert_eq!(len, 27);
        assert!(images.iter().all(|e| e.shift == [0.0; 3]));
        // A corner cell reaches the far corner through the (−L, −L, −L) image.
        let (images, len) = stencil(&grid, &bx, &order, grid.cell_id(0, 0, 0));
        assert_eq!(len, 27);
        let far = order.slots(grid.cell_id(3, 3, 3)..grid.cell_id(3, 3, 3) + 1);
        assert!(images.contains(&Image {
            cursor: far.start,
            end: far.end,
            shift: [-12.0; 3]
        }));
    }

    #[test]
    fn short_periodic_axes_keep_every_image_and_open_axes_never_shift() {
        // Two cells: offsets −1 and +1 reach the same cell by two images.
        assert_eq!(
            axis_images(0, 2, 10.0, true),
            ([(1, -10.0), (0, 0.0), (1, 0.0)], 3)
        );
        assert_eq!(
            axis_images(1, 2, 10.0, true),
            ([(0, 0.0), (1, 0.0), (0, 10.0)], 3)
        );
        // One cell: the cell itself, through all three images.
        assert_eq!(
            axis_images(0, 1, 10.0, true),
            ([(0, -10.0), (0, 0.0), (0, 10.0)], 3)
        );
        // Open axes drop the offsets that leave the grid.
        assert_eq!(axis_images(0, 2, 10.0, false).1, 2);
        assert_eq!(
            axis_images(0, 1, 10.0, false),
            ([(0, 0.0), (0, 0.0), (0, 0.0)], 1)
        );
        assert_eq!(
            axis_images(1, 3, 10.0, false),
            ([(0, 0.0), (1, 0.0), (2, 0.0)], 3)
        );
    }

    #[test]
    fn half_list_stores_each_pair_once_with_lower_owner() {
        let (bx, pos) = LatticeSpec::bcc_fe(4).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.0));
        for (i, row) in nl.csr().iter_rows() {
            for &j in row {
                assert!(j as usize > i, "half list row {i} contains {j} ≤ {i}");
            }
        }
    }

    #[test]
    fn full_list_is_symmetric_and_double_sized() {
        let (bx, pos) = LatticeSpec::bcc_fe(4).build();
        let half = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.0));
        let full = NeighborList::build(&bx, &pos, VerletConfig::full(FE_CUTOFF, 0.0));
        assert_eq!(full.entries(), 2 * half.entries());
        for (i, row) in full.csr().iter_rows() {
            for &j in row {
                assert!(
                    full.neighbors(j as usize).contains(&(i as u32)),
                    "pair ({i},{j}) not mirrored"
                );
            }
        }
    }

    #[test]
    fn to_full_equals_direct_full_build() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        let half = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.1));
        let full = NeighborList::build(&bx, &pos, VerletConfig::full(FE_CUTOFF, 0.1));
        assert_eq!(pair_set(&half.to_full()), pair_set(&full));
    }

    #[test]
    fn bcc_fe_coordination_within_cutoff() {
        // Within 5.67 Å ≈ 1.98a, BCC has 8 (√3/2·a) + 6 (a) + 12 (√2·a)
        // + 24 (√11/2·a ≈ 1.66a) + 8 (√3·a ≈ 1.73a) = 58 neighbors.
        let (bx, pos) = LatticeSpec::bcc_fe(4).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::full(FE_CUTOFF, 0.0));
        let s = nl.stats();
        assert_eq!(s.min, 58, "every Fe atom sees 58 neighbors in a perfect crystal");
        assert_eq!(s.max, 58);
    }

    #[test]
    fn needs_rebuild_triggers_on_half_skin_drift() {
        let (bx, mut pos) = LatticeSpec::bcc_fe(5).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 1.0));
        assert!(!nl.needs_rebuild(&bx, &pos));
        // Move one atom by 0.49 — still inside skin/2 = 0.5.
        pos[0].x += 0.49;
        let wrapped: Vec<_> = pos.iter().map(|&p| bx.wrap(p)).collect();
        assert!(!nl.needs_rebuild(&bx, &wrapped));
        // 0.51 crosses the threshold.
        pos[0].x += 0.02;
        let wrapped: Vec<_> = pos.iter().map(|&p| bx.wrap(p)).collect();
        assert!(nl.needs_rebuild(&bx, &wrapped));
    }

    #[test]
    fn rebuild_check_sees_through_periodic_wrap() {
        let (bx, mut pos) = LatticeSpec::bcc_fe(5).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 1.0));
        // Drift across the boundary: small physical move, large coordinate
        // jump after wrapping. The min-image displacement check must not
        // flag this as a big move... but must flag genuine skin/2 drift.
        pos[0].x -= 0.2; // may wrap below 0
        let wrapped: Vec<_> = pos.iter().map(|&p| bx.wrap(p)).collect();
        assert!(!nl.needs_rebuild(&bx, &wrapped));
    }

    #[test]
    fn skin_enlarges_the_list() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        let tight = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.0));
        let padded = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.6));
        assert!(padded.entries() > tight.entries());
    }

    #[test]
    fn neighbor_rows_are_sorted_ascending() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.3));
        for (_, row) in nl.csr().iter_rows() {
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row not sorted: {row:?}");
        }
    }

    #[test]
    #[should_panic(expected = "box too small")]
    fn box_smaller_than_two_reach_rejected() {
        let bx = SimBox::cubic(10.0);
        let _ = NeighborList::build(&bx, &[Vec3::splat(1.0)], VerletConfig::half(4.0, 1.1));
    }

    #[test]
    fn empty_system_builds_empty_list() {
        let bx = SimBox::cubic(20.0);
        let nl = NeighborList::build(&bx, &[], VerletConfig::half(5.0, 0.0));
        assert_eq!(nl.atoms(), 0);
        assert_eq!(nl.entries(), 0);
    }

    #[test]
    fn empty_list_covers_no_atoms() {
        let nl = NeighborList::empty(VerletConfig::full(5.0, 0.5));
        assert_eq!((nl.atoms(), nl.entries(), nl.heap_bytes()), (0, 0, 0));
        assert_eq!(nl.kind(), NeighborListKind::Full);
        assert!(!nl.needs_rebuild(&SimBox::cubic(20.0), &[]));
    }

    #[test]
    fn isolated_atoms_have_no_neighbors() {
        let bx = SimBox::cubic(100.0);
        let pos = [Vec3::splat(10.0), Vec3::splat(60.0)];
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(5.0, 0.5));
        assert_eq!(nl.entries(), 0);
    }

    #[test]
    fn pair_across_periodic_boundary_is_found() {
        let bx = SimBox::cubic(20.0);
        let pos = [Vec3::new(0.5, 10.0, 10.0), Vec3::new(19.5, 10.0, 10.0)];
        let nl = NeighborList::build(&bx, &pos, VerletConfig::half(5.0, 0.0));
        assert_eq!(nl.entries(), 1, "boundary pair at distance 1.0 missed");
        assert_eq!(nl.neighbors(0), &[1]);
    }

    #[test]
    fn full_memory_is_about_double_half_memory() {
        let (bx, pos) = LatticeSpec::bcc_fe(5).build();
        let half = NeighborList::build(&bx, &pos, VerletConfig::half(FE_CUTOFF, 0.3));
        let full = NeighborList::build(&bx, &pos, VerletConfig::full(FE_CUTOFF, 0.3));
        let ratio = full.heap_bytes() as f64 / half.heap_bytes() as f64;
        assert!(ratio > 1.5, "full/half memory ratio = {ratio}");
    }
}
