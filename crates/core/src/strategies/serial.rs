//! Reference single-thread sweep.
//!
//! This is the paper's optimized serial baseline (its Figs. 1–2 loops with
//! the §II.D optimizations): one pass over the half list, both endpoints
//! updated per pair via Newton's third law / symmetric density flow. All
//! speedups in the reproduction are measured against this path.

use crate::scatter::{pair_task, PairTerm, ScatterValue, TaskRows};
use md_base::pool::SharedSlice;
use md_neighbor::Csr;

/// The serial sweep as a row-owning sweep: one task over every row, in
/// ascending order, on the calling thread.
pub fn sweep_serial<V: ScatterValue>(
    half: &Csr,
    out: &mut [V],
    task: &impl Fn(TaskRows<'_>, &SharedSlice<'_, V>),
) {
    task(TaskRows::All(half.rows()), &SharedSlice::new(out));
}

/// Serial scatter over a half list: for each stored pair `(i, j)`,
/// `out[i] += to_i` and `out[j] += to_j`.
pub fn scatter_serial<V: ScatterValue>(
    half: &Csr,
    out: &mut [V],
    kernel: &(impl Fn(usize, usize) -> Option<PairTerm<V>> + Sync),
) {
    // SAFETY: the single task runs alone.
    sweep_serial(half, out, &|rows, out| unsafe {
        pair_task(half, rows, out, kernel)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_both_endpoints() {
        // 0-1, 0-2, 1-2 triangle with unit symmetric contributions:
        // every vertex has degree 2.
        let half = Csr::from_rows(&[vec![1, 2], vec![2], vec![]]);
        let mut out = vec![0.0f64; 3];
        scatter_serial(&half, &mut out, &|_, _| Some(PairTerm::symmetric(1.0)));
        assert_eq!(out, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn none_contributions_are_skipped() {
        let half = Csr::from_rows(&[vec![1, 2], vec![2], vec![]]);
        let mut out = vec![0.0f64; 3];
        scatter_serial(&half, &mut out, &|i, j| {
            // skip the 0-2 pair
            if i == 0 && j == 2 {
                None
            } else {
                Some(PairTerm::symmetric(1.0))
            }
        });
        assert_eq!(out, vec![1.0, 2.0, 1.0]);
    }

    #[test]
    fn accumulates_into_existing_values() {
        let half = Csr::from_rows(&[vec![1], vec![]]);
        let mut out = vec![10.0f64, 20.0];
        scatter_serial(&half, &mut out, &|_, _| Some(PairTerm::symmetric(1.0)));
        assert_eq!(out, vec![11.0, 21.0]);
    }
}
