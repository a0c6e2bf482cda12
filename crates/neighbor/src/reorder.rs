//! Data-reordering locality transforms (paper §II.D).
//!
//! Irregular MD loops "do not repeatedly access data in memory with small
//! constant strides" (the paper citing Han & Tseng). The paper applies two
//! remedies, both implemented here:
//!
//! 1. **Spatial atom reordering** — relabel atoms so that spatially close
//!    atoms get close indices (we sort by linked-cell id). Neighbor indices
//!    `j` in the inner loops then read `rho[j]` / `pos[j]` from nearby cache
//!    lines.
//! 2. **Regularized neighbor arrays** — the CSR layout of [`crate::Csr`]
//!    replaces the irregular `neighindex[]`/`neighlen[]` pair, and the list
//!    builder emits every row in ascending order, so each row's reads are
//!    monotone in memory.
//!
//! The permutation type is explicit about direction: `new_to_old[new] = old`.

use crate::cell_grid::CellGrid;
use crate::csr::PAR_MIN_CHUNK;
use md_base::pool;
use md_geometry::{SimBox, Vec3};

/// A relabeling of `n` atoms: `new_to_old[new_index] = old_index`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_to_old: Vec<u32>,
}

impl Permutation {
    /// The identity permutation on `n` elements.
    pub fn identity(n: usize) -> Permutation {
        Permutation {
            new_to_old: (0..n as u32).collect(),
        }
    }

    /// Builds a permutation from a `new_to_old` mapping.
    ///
    /// # Panics
    /// Panics unless the mapping is a bijection on `0..n`.
    pub fn from_new_to_old(new_to_old: Vec<u32>) -> Permutation {
        let n = new_to_old.len();
        let mut seen = vec![false; n];
        for &o in &new_to_old {
            assert!((o as usize) < n, "index {o} out of range for permutation of {n}");
            assert!(!seen[o as usize], "index {o} appears twice; not a permutation");
            seen[o as usize] = true;
        }
        Permutation { new_to_old }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// `true` for the empty permutation.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// The raw `new_to_old` mapping.
    #[inline]
    pub fn new_to_old(&self) -> &[u32] {
        &self.new_to_old
    }

    /// Old index of the atom now labeled `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.new_to_old[new] as usize
    }

    /// The inverse permutation (`old_to_new`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.len()];
        for (new, &old) in self.new_to_old.iter().enumerate() {
            inv[old as usize] = new as u32;
        }
        Permutation { new_to_old: inv }
    }

    /// Applies the relabeling to per-atom data: `out[new] = data[old]`.
    ///
    /// The gather runs on the current pool; each output slot is written by
    /// exactly one call, so the result is the same at any thread count.
    /// Small inputs gather serially.
    pub fn apply<T: Clone + Send + Sync>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.len(), "data length != permutation length");
        if data.len() < PAR_MIN_CHUNK {
            return self.new_to_old.iter().map(|&old| data[old as usize].clone()).collect();
        }
        pool::map_collect(self.len(), |new| data[self.new_to_old[new] as usize].clone())
    }

    /// Applies the relabeling in place using a scratch buffer.
    pub fn apply_in_place<T: Clone + Send + Sync>(&self, data: &mut Vec<T>) {
        let out = self.apply(data);
        *data = out;
    }

    /// Composition `self ∘ other`: applying the result equals applying
    /// `other` first, then `self`.
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.len(), other.len(), "permutation sizes differ");
        let new_to_old = self
            .new_to_old
            .iter()
            .map(|&mid| other.new_to_old[mid as usize])
            .collect();
        Permutation { new_to_old }
    }
}

/// Computes the spatial-sort permutation: atoms ordered by linked-cell id
/// (x-major), preserving input order within a cell.
///
/// This is the paper's §II.D.1 transform: after relabeling, consecutive atom
/// indices are spatially adjacent, so the irregular reads in the inner force
/// loops hit nearby cache lines.
///
/// Binning runs on the current pool ([`CellGrid::build_parallel`], bitwise
/// identical to the serial grid at any thread count).
pub fn spatial_permutation(sim_box: &SimBox, positions: &[Vec3], cell_size: f64) -> Permutation {
    if positions.is_empty() {
        return Permutation::identity(0);
    }
    let grid = CellGrid::build_parallel(sim_box, positions, cell_size);
    let order: Vec<u32> = grid.atoms_in_cell_order().collect();
    Permutation::from_new_to_old(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use md_geometry::LatticeSpec;

    #[test]
    fn identity_apply_is_noop() {
        let p = Permutation::identity(4);
        let data = vec![10, 20, 30, 40];
        assert_eq!(p.apply(&data), data);
    }

    #[test]
    fn apply_moves_old_to_new() {
        // new 0 takes old 2, new 1 takes old 0, new 2 takes old 1.
        let p = Permutation::from_new_to_old(vec![2, 0, 1]);
        assert_eq!(p.apply(&['a', 'b', 'c']), vec!['c', 'a', 'b']);
        assert_eq!(p.old_of(0), 2);
    }

    #[test]
    fn inverse_round_trips() {
        let p = Permutation::from_new_to_old(vec![3, 1, 0, 2]);
        let data = vec![1, 2, 3, 4];
        let there = p.apply(&data);
        let back = p.inverse().apply(&there);
        assert_eq!(back, data);
    }

    #[test]
    fn compose_applies_right_then_left() {
        let f = Permutation::from_new_to_old(vec![1, 2, 0]);
        let g = Permutation::from_new_to_old(vec![2, 1, 0]);
        let fg = f.compose(&g);
        let data = vec!['x', 'y', 'z'];
        assert_eq!(fg.apply(&data), f.apply(&g.apply(&data)));
    }

    #[test]
    #[should_panic(expected = "appears twice")]
    fn duplicate_rejected() {
        let _ = Permutation::from_new_to_old(vec![0, 0, 1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let _ = Permutation::from_new_to_old(vec![0, 3]);
    }

    #[test]
    fn spatial_permutation_is_a_permutation_and_clusters_cells() {
        let (bx, pos) = LatticeSpec::bcc_fe(3).build();
        let p = spatial_permutation(&bx, &pos, 2.9);
        assert_eq!(p.len(), pos.len());
        // After relabeling, consecutive atoms should mostly be nearby:
        // measure mean distance between consecutive indices before/after.
        let reordered = p.apply(&pos);
        let mean_step = |ps: &[md_geometry::Vec3]| {
            ps.windows(2)
                .map(|w| bx.distance_sq(w[0], w[1]).sqrt())
                .sum::<f64>()
                / (ps.len() - 1) as f64
        };
        // BCC generation order is already fairly local; the reorder must not
        // be dramatically worse and must remain a valid permutation.
        assert!(mean_step(&reordered) <= mean_step(&pos) * 2.0);
        let mut sorted = p.new_to_old().to_vec();
        sorted.sort_unstable();
        let expect: Vec<u32> = (0..pos.len() as u32).collect();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn apply_on_a_pool_matches_serial_apply() {
        // bcc_fe(9) = 1458 atoms: past the parallel gather threshold.
        let (bx, pos) = LatticeSpec::bcc_fe(9).build();
        let p = spatial_permutation(&bx, &pos, 2.9);
        let pool = pool::Pool::new(4);
        assert_eq!(pool.install(|| p.apply(&pos)), p.apply(&pos));
        let mut in_place = pos.clone();
        pool.install(|| p.apply_in_place(&mut in_place));
        assert_eq!(in_place, p.apply(&pos));
    }

    #[test]
    fn parallel_spatial_permutation_matches_serial() {
        // bcc_fe(11) = 2662 atoms: past the parallel binning threshold.
        let (bx, pos) = LatticeSpec::bcc_fe(11).build();
        let serial = spatial_permutation(&bx, &pos, 2.9);
        let parallel = pool::Pool::new(4).install(|| spatial_permutation(&bx, &pos, 2.9));
        assert_eq!(serial, parallel);
    }
}
