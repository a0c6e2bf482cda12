//! Compressed sparse row (CSR) adjacency storage.
//!
//! The paper's serial code (its Figs. 1–2) walks neighbor lists through two
//! *irregular* arrays, `neighindex[i]` (start of atom `i`'s neighbors) and
//! `neighlen[i]` (their count). Its §II.D.2 optimization replaces them with
//! "regular arrays" so that accesses become sequential. Here row `i` is the
//! *window* `indices[start[i] .. end[i]]` of one contiguous `indices`
//! array. The windows tile `indices` without gap or overlap, in an order the
//! builder chooses: row order (`start[i + 1] == end[i]`, the classic
//! `offsets` array) unless a list builder lays the rows out in the order a
//! sweep visits them, so that each sweep task reads one contiguous run.

use md_base::pool::{self, SharedSlice};
use std::ops::Range;

/// Below this many elements a parallel build is all overhead; the parallel
/// entry points fall back to their serial twins (which produce identical
/// bytes, so the cutover is invisible to callers).
pub(crate) const PAR_MIN_CHUNK: usize = 1024;

/// CSR adjacency: `indices[start[i] .. end[i]]` are the neighbors of row
/// `i`.
///
/// The windows tile `0..entries()` with no gap or overlap, so scratch
/// addressed by slot is private to its row. Every public constructor lays
/// them out in row order; the list builder may lay them out in any order of
/// the rows. Equality compares the layout too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    start: Vec<u32>,
    end: Vec<u32>,
    indices: Vec<u32>,
}

impl Csr {
    /// An empty CSR with `rows` empty rows.
    pub fn empty(rows: usize) -> Csr {
        Csr {
            start: vec![0; rows],
            end: vec![0; rows],
            indices: Vec::new(),
        }
    }

    /// The row-order CSR of `offsets` (row `i` is
    /// `offsets[i]..offsets[i + 1]`, monotone by construction).
    fn in_row_order(offsets: &[u32], indices: Vec<u32>) -> Csr {
        Csr {
            start: offsets[..offsets.len() - 1].to_vec(),
            end: offsets[1..].to_vec(),
            indices,
        }
    }

    /// A CSR whose row `i` holds `lens[i]` zeros, with the windows laid out
    /// back to back in `order` (row order when `None`): the first row of
    /// `order` starts at 0 and each next one where the previous one ends.
    /// The list builder then fills the rows in place through
    /// [`Csr::rows_mut`].
    ///
    /// # Panics
    /// Panics unless `order` is a permutation of `0..lens.len()`, or if the
    /// entry count overflows `u32`.
    pub(crate) fn with_row_lens(lens: Vec<u32>, order: Option<&[u32]>) -> Csr {
        let n = lens.len();
        let mut start = vec![0u32; n];
        let mut end = lens;
        let mut total = 0u32;
        let mut lay = |i: usize| {
            start[i] = total;
            total = total
                .checked_add(end[i])
                .expect("CSR entry count overflows u32");
            end[i] = total;
        };
        match order {
            None => (0..n).for_each(lay),
            Some(order) => {
                assert_eq!(order.len(), n, "a layout order lists every row once");
                let mut seen = vec![false; n];
                for &i in order {
                    let i = i as usize;
                    assert!(
                        i < n && !std::mem::replace(&mut seen[i], true),
                        "a layout order is a permutation of the rows"
                    );
                    lay(i);
                }
            }
        }
        Csr {
            start,
            end,
            indices: vec![0; total as usize],
        }
    }

    /// The window bounds and the indices, for filling the rows of a
    /// [`Csr::with_row_lens`] in place: row `i` is
    /// `indices[start[i]..end[i]]`.
    pub(crate) fn rows_mut(&mut self) -> (&[u32], &[u32], &mut [u32]) {
        (&self.start, &self.end, &mut self.indices)
    }

    /// Builds a CSR from per-row neighbor vectors.
    pub fn from_rows(rows: &[Vec<u32>]) -> Csr {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut total = 0u32;
        offsets.push(0);
        for r in rows {
            total = total
                .checked_add(r.len() as u32)
                .expect("CSR entry count overflows u32");
            offsets.push(total);
        }
        let mut indices = Vec::with_capacity(total as usize);
        for r in rows {
            indices.extend_from_slice(r);
        }
        Csr::in_row_order(&offsets, indices)
    }

    /// Groups the value `i` under row `keys[i]` for every `i`: the CSR whose
    /// row `r` lists, in ascending order, the positions where `keys` equals
    /// `r`: the one-pass stable counting sort linked-cell binning uses.
    ///
    /// # Panics
    /// Panics if any key is `≥ rows`.
    pub fn group_by_key(rows: usize, keys: &[u32]) -> Csr {
        let mut counts = vec![0u32; rows + 1];
        for &k in keys {
            assert!((k as usize) < rows, "key {k} out of range (rows = {rows})");
            counts[k as usize + 1] += 1;
        }
        for i in 0..rows {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; keys.len()];
        for (i, &k) in keys.iter().enumerate() {
            let at = cursor[k as usize];
            indices[at as usize] = i as u32;
            cursor[k as usize] += 1;
        }
        Csr::in_row_order(&offsets, indices)
    }

    /// Parallel [`Csr::group_by_key`], bitwise-identical to the serial form
    /// for every thread count.
    ///
    /// The input is split into one contiguous chunk per worker; each worker
    /// counts its keys privately, a column-wise exclusive prefix over
    /// `(chunk, row)` turns the private counts into disjoint write windows,
    /// and every worker then scatters its values into its own windows. The
    /// windows partition `0..keys.len()` exactly as the serial stable
    /// counting sort fills it, so the offsets *and* the indices come out
    /// byte-identical regardless of how many workers ran. Runs on the
    /// current pool; with one worker (or a small input) it falls back to
    /// the serial code path.
    ///
    /// # Panics
    /// Panics if any key is `≥ rows`.
    pub fn group_by_key_par(rows: usize, keys: &[u32]) -> Csr {
        let workers = pool::current_threads();
        if workers <= 1 || keys.len() < 2 * PAR_MIN_CHUNK {
            return Csr::group_by_key(rows, keys);
        }
        let chunk = keys.len().div_ceil(workers).max(PAR_MIN_CHUNK);
        let n_chunks = keys.len().div_ceil(chunk);
        let chunk_of = |t: usize| &keys[t * chunk..((t + 1) * chunk).min(keys.len())];
        // Per-chunk private histograms (validated in parallel).
        let locals: Vec<Vec<u32>> = pool::map_collect(n_chunks, |t| {
            let mut counts = vec![0u32; rows];
            for &k in chunk_of(t) {
                assert!((k as usize) < rows, "key {k} out of range (rows = {rows})");
                counts[k as usize] += 1;
            }
            counts
        });
        // Global offsets, then per-(chunk, row) start cursors: chunk t's
        // window in row r begins after every earlier chunk's keys for r.
        let mut offsets = vec![0u32; rows + 1];
        for r in 0..rows {
            let total: u32 = locals.iter().map(|l| l[r]).sum();
            offsets[r + 1] = offsets[r] + total;
        }
        let mut cursors: Vec<Vec<u32>> = Vec::with_capacity(n_chunks);
        let mut cursor = offsets[..rows].to_vec();
        for local in &locals {
            cursors.push(cursor.clone());
            for r in 0..rows {
                cursor[r] += local[r];
            }
        }
        let mut indices = vec![0u32; keys.len()];
        let slots = SharedSlice::new(&mut indices);
        pool::for_each_chunk_mut(&mut cursors, 1, |t, cur| {
            let cur = &mut cur[0];
            let base = t * chunk;
            for (i, &k) in chunk_of(t).iter().enumerate() {
                let at = cur[k as usize];
                cur[k as usize] += 1;
                // SAFETY: `at` lies in chunk t's private window of row k —
                // windows are disjoint across chunks and rows and partition
                // 0..keys.len(), so no two workers ever write the same slot.
                unsafe { *slots.get_mut(at as usize) = (base + i) as u32 };
            }
        });
        Csr::in_row_order(&offsets, indices)
    }

    /// Assembles a row-order CSR directly from raw parts: row `i` is
    /// `indices[offsets[i]..offsets[i + 1]]`.
    ///
    /// # Panics
    /// Panics unless `offsets` is non-empty, monotone non-decreasing, starts
    /// at 0 and ends at `indices.len()`.
    pub fn from_raw(offsets: Vec<u32>, indices: Vec<u32>) -> Csr {
        assert!(!offsets.is_empty(), "offsets must have at least one entry");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone non-decreasing"
        );
        assert_eq!(
            *offsets.last().unwrap() as usize,
            indices.len(),
            "last offset must equal indices length"
        );
        Csr::in_row_order(&offsets, indices)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.start.len()
    }

    /// Total number of stored entries.
    #[inline]
    pub fn entries(&self) -> usize {
        self.indices.len()
    }

    /// The neighbors of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.indices[self.window(i)]
    }

    /// Length of row `i` (the paper's `neighlen[i]`).
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.end[i] - self.start[i]) as usize
    }

    /// Where row `i` sits in [`Csr::indices`]: its CSR slots, which also
    /// address any per-entry scratch kept alongside the list.
    #[inline]
    pub fn window(&self, i: usize) -> Range<usize> {
        self.start[i] as usize..self.end[i] as usize
    }

    /// The raw window starts, one per row (the paper's `neighindex[]`).
    #[inline]
    pub fn starts(&self) -> &[u32] {
        &self.start
    }

    /// The raw window ends, one per row.
    #[inline]
    pub fn ends(&self) -> &[u32] {
        &self.end
    }

    /// The raw indices array (the paper's `neighlist[]`), in layout order.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Iterates `(row, &neighbors)` pairs.
    pub fn iter_rows(&self) -> impl Iterator<Item = (usize, &[u32])> + '_ {
        (0..self.rows()).map(move |i| (i, self.row(i)))
    }

    /// Returns the *mirrored* CSR: entry `j ∈ row(i)` becomes `i ∈ row(j)`.
    ///
    /// Applied to a half neighbor list this yields "the other half"; the
    /// union (see [`Csr::symmetrized`]) is the full list the Redundant
    /// Computation baseline consumes.
    pub fn mirrored(&self) -> Csr {
        let n = self.rows();
        let mut counts = vec![0u32; n + 1];
        for &j in &self.indices {
            assert!((j as usize) < n, "mirror requires square adjacency");
            counts[j as usize + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut indices = vec![0u32; self.indices.len()];
        for (i, row) in self.iter_rows() {
            for &j in row {
                let at = cursor[j as usize];
                indices[at as usize] = i as u32;
                cursor[j as usize] += 1;
            }
        }
        Csr::in_row_order(&offsets, indices)
    }

    /// The full (symmetric) adjacency of a half one: `self` united with its
    /// mirror.
    ///
    /// `self` must be strictly upper triangular with ascending rows (every
    /// `j` in row `i` is above `i`), as a half neighbor list is. Full row
    /// `i` is then the mirror row — the ids below `i`, ascending because
    /// [`Csr::mirrored`] visits rows in order — followed by the half row,
    /// so both are copied straight into place and the result's rows are
    /// ascending. The result is in row order, whatever `self`'s layout.
    pub fn symmetrized(&self) -> Csr {
        debug_assert!(
            self.iter_rows()
                .all(|(i, r)| r.first().is_none_or(|&j| j as usize > i)
                    && r.windows(2).all(|w| w[0] < w[1])),
            "symmetrized needs a strictly upper-triangular CSR with ascending rows"
        );
        let mirror = self.mirrored();
        let mut offsets = Vec::with_capacity(self.rows() + 1);
        let mut indices = Vec::with_capacity(2 * self.entries());
        offsets.push(0);
        for i in 0..self.rows() {
            indices.extend_from_slice(mirror.row(i));
            indices.extend_from_slice(self.row(i));
            offsets.push(u32::try_from(indices.len()).expect("CSR entry count overflows u32"));
        }
        Csr::in_row_order(&offsets, indices)
    }

    /// Heap bytes used by the structure (for memory-overhead reporting; the
    /// paper motivates SDC partly by EAM's memory pressure).
    pub fn heap_bytes(&self) -> usize {
        (self.start.capacity() + self.end.capacity() + self.indices.capacity())
            * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // 0 -> {1, 2}, 1 -> {2}, 2 -> {}, 3 -> {0}
        Csr::from_rows(&[vec![1, 2], vec![2], vec![], vec![0]])
    }

    #[test]
    fn rows_and_entries() {
        let c = sample();
        assert_eq!(c.rows(), 4);
        assert_eq!(c.entries(), 4);
        assert_eq!(c.row(0), &[1, 2]);
        assert_eq!(c.row(1), &[2]);
        assert_eq!(c.row(2), &[] as &[u32]);
        assert_eq!(c.row(3), &[0]);
        assert_eq!(c.row_len(0), 2);
        assert_eq!(c.row_len(2), 0);
    }

    #[test]
    fn empty_has_no_entries() {
        let c = Csr::empty(3);
        assert_eq!(c.rows(), 3);
        assert_eq!(c.entries(), 0);
        for i in 0..3 {
            assert!(c.row(i).is_empty());
        }
    }

    #[test]
    fn group_by_key_groups_stably() {
        let keys = [2u32, 0, 2, 1, 0];
        let c = Csr::group_by_key(3, &keys);
        assert_eq!(c.row(0), &[1, 4]);
        assert_eq!(c.row(1), &[3]);
        assert_eq!(c.row(2), &[0, 2]);
    }

    #[test]
    fn group_by_key_par_matches_serial() {
        // Large enough to clear the 2 * PAR_MIN_CHUNK serial-fallback gate.
        let n = 3 * PAR_MIN_CHUNK;
        let rows = 17;
        let keys: Vec<u32> = (0..n).map(|i| ((i * 7 + 3) % rows) as u32).collect();
        let serial = Csr::group_by_key(rows, &keys);
        let parallel = pool::Pool::new(4).install(|| Csr::group_by_key_par(rows, &keys));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn from_raw_validates() {
        let c = Csr::from_raw(vec![0, 2, 2], vec![7, 8]);
        assert_eq!(c.row(0), &[7, 8]);
        assert_eq!(c.row(1), &[] as &[u32]);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn from_raw_rejects_decreasing_offsets() {
        let _ = Csr::from_raw(vec![0, 2, 1], vec![7, 8]);
    }

    #[test]
    #[should_panic(expected = "last offset")]
    fn from_raw_rejects_bad_total() {
        let _ = Csr::from_raw(vec![0, 1], vec![7, 8]);
    }

    #[test]
    fn mirror_reverses_all_edges() {
        let c = sample();
        let m = c.mirrored();
        assert_eq!(m.row(0), &[3]);
        assert_eq!(m.row(1), &[0]);
        assert_eq!(m.row(2), &[0, 1]);
        assert_eq!(m.row(3), &[] as &[u32]);
        assert_eq!(m.entries(), c.entries());
        // Mirroring twice restores the edge set (possibly reordered).
        let mm = m.mirrored();
        let mut orig: Vec<(usize, u32)> = c.iter_rows().flat_map(|(i, r)| r.iter().map(move |&j| (i, j))).collect();
        let mut back: Vec<(usize, u32)> = mm.iter_rows().flat_map(|(i, r)| r.iter().map(move |&j| (i, j))).collect();
        orig.sort_unstable();
        back.sort_unstable();
        assert_eq!(orig, back);
    }

    #[test]
    fn symmetrized_contains_both_directions() {
        let c = Csr::from_rows(&[vec![1], vec![2], vec![]]);
        let s = c.symmetrized();
        assert_eq!(s.row(0), &[1]);
        assert_eq!(s.row(1), &[0, 2]);
        assert_eq!(s.row(2), &[1]);
        // A half list of p pairs symmetrizes to exactly 2p entries.
        assert_eq!(s.entries(), 2 * c.entries());
    }

    #[test]
    fn iter_rows_visits_all() {
        let c = sample();
        let collected: Vec<(usize, Vec<u32>)> =
            c.iter_rows().map(|(i, r)| (i, r.to_vec())).collect();
        assert_eq!(collected.len(), 4);
        assert_eq!(collected[3], (3, vec![0]));
    }

    /// `rows` laid out in `order`, filled in place as the list builder
    /// fills them.
    fn laid_out(rows: &[Vec<u32>], order: &[u32]) -> Csr {
        let lens = rows.iter().map(|r| r.len() as u32).collect();
        let mut c = Csr::with_row_lens(lens, Some(order));
        let (start, end, indices) = c.rows_mut();
        for (i, r) in rows.iter().enumerate() {
            indices[start[i] as usize..end[i] as usize].copy_from_slice(r);
        }
        c
    }

    #[test]
    fn laid_out_rows_read_as_in_row_order() {
        // A half list: strictly upper triangular, ascending rows.
        let rows = vec![vec![1, 2, 4], vec![2], vec![3, 4], vec![], vec![]];
        let in_order = Csr::from_rows(&rows);
        for order in [
            vec![0, 1, 2, 3, 4],
            vec![4, 3, 2, 1, 0],
            vec![2, 0, 4, 1, 3],
        ] {
            let c = laid_out(&rows, &order);
            assert_eq!(c.rows(), in_order.rows());
            assert_eq!(c.entries(), in_order.entries());
            for i in 0..c.rows() {
                assert_eq!(c.row(i), in_order.row(i), "{order:?}: row {i}");
                assert_eq!(c.row_len(i), in_order.row_len(i), "{order:?}: row {i}");
            }
            assert!(c.iter_rows().eq(in_order.iter_rows()), "{order:?}");
            assert_eq!(c.mirrored(), in_order.mirrored(), "{order:?}");
            assert_eq!(c.symmetrized(), in_order.symmetrized(), "{order:?}");
            // The windows run back to back in `order`, from 0 to the end.
            let mut at = 0;
            for &i in &order {
                assert_eq!(c.window(i as usize).start, at, "{order:?}: row {i}");
                at = c.window(i as usize).end;
            }
            assert_eq!(at, c.entries());
        }
        // Laid out in row order, the bytes are the row-order constructor's.
        assert_eq!(laid_out(&rows, &[0, 1, 2, 3, 4]), in_order);
        assert_eq!(
            Csr::with_row_lens(vec![3, 1, 2, 0, 0], None).starts(),
            in_order.starts()
        );
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn layout_order_must_be_a_permutation() {
        let _ = Csr::with_row_lens(vec![1, 1, 1], Some(&[0, 2, 0]));
    }

    #[test]
    fn heap_bytes_counts_every_array() {
        let c = sample();
        assert!(c.heap_bytes() >= (2 * c.rows() + c.entries()) * 4);
    }
}
