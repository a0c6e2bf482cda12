//! Linked-cell binning.
//!
//! Atoms are binned into a regular grid of cells whose edge is at least the
//! interaction range, so all neighbors of an atom lie in its own cell or the
//! 26 surrounding cells. Construction is a counting sort (O(N)); the cell
//! contents are stored in CSR form, so a build performs exactly three passes
//! over the atoms and two allocations. [`CellGrid::build_parallel`] runs the
//! same counting sort chunked over the current pool's workers with
//! prefix-summed write windows, producing bytes identical to the serial
//! build at any thread count.

use crate::csr::{Csr, PAR_MIN_CHUNK};
use md_base::pool;
use md_geometry::{SimBox, Vec3};

/// A regular grid of cells over a periodic simulation box, with atoms binned
/// into cells.
#[derive(Debug, Clone)]
pub struct CellGrid {
    dims: [usize; 3],
    cells: Csr,
    /// cell id of each atom, kept for O(1) lookup.
    atom_cell: Vec<u32>,
}

impl CellGrid {
    /// Bins `positions` into cells of edge ≥ `min_cell` inside `sim_box`.
    ///
    /// Positions must already be wrapped into the primary image along the
    /// periodic axes. Along non-periodic axes, atoms that drifted past a
    /// face are binned into the boundary cell instead of being rejected —
    /// open boundaries make such drift legitimate, and higher layers (the
    /// simulation watchdog) decide when it has become an escape.
    ///
    /// # Panics
    /// Panics if `min_cell` is not positive, exceeds any box edge, or if
    /// any position lies outside the primary image along a periodic axis.
    pub fn build(sim_box: &SimBox, positions: &[Vec3], min_cell: f64) -> CellGrid {
        let geo = GridGeometry::of(sim_box, min_cell);
        let atom_cell: Vec<u32> = positions
            .iter()
            .enumerate()
            .map(|(a, &p)| geo.bin_atom(sim_box, a, p))
            .collect();
        let cells = Csr::group_by_key(geo.cell_count(), &atom_cell);
        CellGrid {
            dims: geo.dims,
            cells,
            atom_cell,
        }
    }

    /// [`CellGrid::build`] with parallel binning, bitwise-identical to the
    /// serial build for every thread count.
    ///
    /// Cell assignment is a pure per-atom map (order-preserving parallel
    /// collect), and the CSR scatter is the deterministic chunked counting
    /// sort of [`Csr::group_by_key_par`]. Runs on the current pool — call it
    /// inside `Pool::install`; on a one-worker pool (or a small system) it
    /// takes the serial path.
    ///
    /// # Panics
    /// As [`CellGrid::build`].
    pub fn build_parallel(sim_box: &SimBox, positions: &[Vec3], min_cell: f64) -> CellGrid {
        let geo = GridGeometry::of(sim_box, min_cell);
        if pool::current_threads() <= 1 || positions.len() < 2 * PAR_MIN_CHUNK {
            return CellGrid::build(sim_box, positions, min_cell);
        }
        let atom_cell =
            pool::map_collect(positions.len(), |a| geo.bin_atom(sim_box, a, positions[a]));
        let cells = Csr::group_by_key_par(geo.cell_count(), &atom_cell);
        CellGrid {
            dims: geo.dims,
            cells,
            atom_cell,
        }
    }

    /// Grid dimensions (number of cells along each axis).
    #[inline]
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Total number of cells.
    #[inline]
    pub fn cell_count(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Atoms contained in cell `c`.
    #[inline]
    pub fn cell_atoms(&self, c: usize) -> &[u32] {
        self.cells.row(c)
    }

    /// All cells as one CSR: row `c` lists cell `c`'s atoms in ascending
    /// order, and the rows lie back to back in cell order.
    #[inline]
    pub(crate) fn cells(&self) -> &Csr {
        &self.cells
    }

    /// Cell id of atom `a`.
    #[inline]
    pub fn cell_of_atom(&self, a: usize) -> usize {
        self.atom_cell[a] as usize
    }

    /// Linear cell id from 3-D cell coordinates.
    #[inline]
    pub fn cell_id(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (ix * self.dims[1] + iy) * self.dims[2] + iz
    }

    /// 3-D cell coordinates from a linear id.
    #[inline]
    pub fn cell_coords(&self, c: usize) -> [usize; 3] {
        let iz = c % self.dims[2];
        let iy = (c / self.dims[2]) % self.dims[1];
        let ix = c / (self.dims[1] * self.dims[2]);
        [ix, iy, iz]
    }

    /// Iterates all atoms in cell order (used by the spatial-sort reordering).
    pub fn atoms_in_cell_order(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.cell_count()).flat_map(move |c| self.cell_atoms(c).iter().copied())
    }

    /// Mean atoms per cell.
    pub fn mean_occupancy(&self) -> f64 {
        self.atom_cell.len() as f64 / self.cell_count() as f64
    }
}

/// Grid dimensions and the cell-index map, shared by the serial and the
/// parallel builder so the two can never diverge in how they bin an atom.
#[derive(Debug, Clone, Copy)]
struct GridGeometry {
    dims: [usize; 3],
    inv_cell: Vec3,
    lengths: Vec3,
}

impl GridGeometry {
    fn of(sim_box: &SimBox, min_cell: f64) -> GridGeometry {
        assert!(min_cell > 0.0 && min_cell.is_finite(), "min_cell must be positive");
        let l = sim_box.lengths();
        let mut dims = [0usize; 3];
        for d in 0..3 {
            let n = (l[d] / min_cell).floor() as usize;
            assert!(n >= 1, "cell size {min_cell} exceeds box edge {}", l[d]);
            dims[d] = n;
        }
        let inv_cell = Vec3::new(
            dims[0] as f64 / l.x,
            dims[1] as f64 / l.y,
            dims[2] as f64 / l.z,
        );
        GridGeometry {
            dims,
            inv_cell,
            lengths: l,
        }
    }

    #[inline]
    fn cell_count(&self) -> usize {
        self.dims[0] * self.dims[1] * self.dims[2]
    }

    /// Cell id of atom `a` at position `p`, with the periodic-image check
    /// and the open-boundary clamp.
    #[inline]
    fn bin_atom(&self, sim_box: &SimBox, a: usize, p: Vec3) -> u32 {
        let l = self.lengths;
        let mut q = p;
        for (d, axis) in md_geometry::Axis::ALL.into_iter().enumerate() {
            if sim_box.is_periodic(axis) {
                assert!(
                    p[d] >= 0.0 && p[d] < l[d],
                    "atom {a} at {p} outside primary image of box {l}"
                );
            } else {
                // Open boundary: atoms may legitimately drift past the
                // face. Bin them into the boundary cell; the simulation
                // watchdog decides when drift has become an escape.
                q[d] = p[d].clamp(0.0, l[d]);
            }
        }
        cell_of(q, self.inv_cell, self.dims) as u32
    }
}

#[inline]
fn cell_of(p: Vec3, inv_cell: Vec3, dims: [usize; 3]) -> usize {
    let mut idx = [0usize; 3];
    for d in 0..3 {
        // Clamp handles positions within float-epsilon of the upper edge.
        let i = (p[d] * inv_cell[d]) as usize;
        idx[d] = i.min(dims[d] - 1);
    }
    (idx[0] * dims[1] + idx[1]) * dims[2] + idx[2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_geometry::LatticeSpec;

    #[test]
    fn every_atom_lands_in_exactly_one_cell() {
        let (bx, pos) = LatticeSpec::bcc_fe(3).build();
        let g = CellGrid::build(&bx, &pos, 2.87);
        let total: usize = (0..g.cell_count()).map(|c| g.cell_atoms(c).len()).sum();
        assert_eq!(total, pos.len());
        for a in 0..pos.len() {
            let c = g.cell_of_atom(a);
            assert!(g.cell_atoms(c).contains(&(a as u32)));
        }
    }

    #[test]
    fn parallel_build_matches_serial_bitwise() {
        // bcc_fe(11) = 2662 atoms > 2 * PAR_MIN_CHUNK, so the chunked
        // counting sort actually runs rather than falling back.
        let (bx, pos) = LatticeSpec::bcc_fe(11).build();
        let serial = CellGrid::build(&bx, &pos, 2.87);
        for threads in [2usize, 4] {
            let parallel =
                pool::Pool::new(threads).install(|| CellGrid::build_parallel(&bx, &pos, 2.87));
            assert_eq!(serial.dims(), parallel.dims());
            assert_eq!(serial.cells, parallel.cells);
        }
    }

    #[test]
    fn dims_respect_min_cell() {
        let bx = SimBox::cubic(10.0);
        let g = CellGrid::build(&bx, &[Vec3::splat(1.0)], 3.0);
        assert_eq!(g.dims(), [3, 3, 3]);
        // Each cell edge is 10/3 ≈ 3.33 ≥ 3.0.
    }

    #[test]
    fn cell_id_coords_round_trip() {
        let bx = SimBox::periodic(Vec3::new(12.0, 8.0, 20.0));
        let g = CellGrid::build(&bx, &[Vec3::splat(0.5)], 2.0);
        for c in 0..g.cell_count() {
            let [ix, iy, iz] = g.cell_coords(c);
            assert_eq!(g.cell_id(ix, iy, iz), c);
        }
    }

    #[test]
    fn atoms_near_upper_edge_are_clamped_into_last_cell() {
        let bx = SimBox::cubic(10.0);
        let p = Vec3::splat(10.0 - 1e-13);
        let g = CellGrid::build(&bx, &[p], 2.5);
        let c = g.cell_of_atom(0);
        assert_eq!(g.cell_coords(c), [3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "outside primary image")]
    fn unwrapped_positions_are_rejected() {
        let bx = SimBox::cubic(10.0);
        let _ = CellGrid::build(&bx, &[Vec3::splat(10.5)], 2.5);
    }

    #[test]
    fn open_axis_overflow_bins_into_the_boundary_cell() {
        // z is non-periodic: drift past either face is tolerated and lands
        // in the nearest boundary cell instead of panicking.
        let bx = SimBox::with_periodicity(Vec3::splat(10.0), [true, true, false]);
        let above = Vec3::new(1.0, 1.0, 13.5);
        let below = Vec3::new(1.0, 1.0, -2.0);
        let g = CellGrid::build(&bx, &[above, below], 2.5);
        assert_eq!(g.cell_coords(g.cell_of_atom(0)), [0, 0, 3]);
        assert_eq!(g.cell_coords(g.cell_of_atom(1)), [0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "exceeds box edge")]
    fn oversized_cell_rejected() {
        let bx = SimBox::cubic(2.0);
        let _ = CellGrid::build(&bx, &[Vec3::splat(0.5)], 3.0);
    }

    #[test]
    fn cell_order_iteration_covers_all_atoms() {
        let (bx, pos) = LatticeSpec::bcc_fe(2).build();
        let g = CellGrid::build(&bx, &pos, 2.8);
        let mut seen: Vec<u32> = g.atoms_in_cell_order().collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..pos.len() as u32).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn mean_occupancy_is_total_over_cells() {
        let (bx, pos) = LatticeSpec::bcc_fe(3).build();
        let g = CellGrid::build(&bx, &pos, 2.87);
        let expected = pos.len() as f64 / g.cell_count() as f64;
        assert!((g.mean_occupancy() - expected).abs() < 1e-12);
    }
}
