//! Compressed sparse row (CSR) adjacency storage.
//!
//! The paper's serial code (its Figs. 1–2) walks neighbor lists through two
//! *irregular* arrays, `neighindex[i]` (start of atom `i`'s neighbors) and
//! `neighlen[i]` (their count). Its §II.D.2 optimization replaces them with
//! "regular arrays" so that accesses become sequential — which is precisely
//! the CSR layout implemented here: one `offsets` array of length `n + 1`
//! (monotone, so `offsets[i+1] - offsets[i]` *is* `neighlen[i]`) plus one
//! contiguous `indices` array.

use md_base::pool::{self, SharedSlice};

/// Below this many elements a parallel build is all overhead; the parallel
/// entry points fall back to their serial twins (which produce identical
/// bytes, so the cutover is invisible to callers).
pub(crate) const PAR_MIN_CHUNK: usize = 1024;

/// CSR adjacency: `indices[offsets[i] .. offsets[i+1]]` are the neighbors of
/// row `i`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    offsets: Vec<u32>,
    indices: Vec<u32>,
}

impl Csr {
    /// An empty CSR with `rows` empty rows.
    pub fn empty(rows: usize) -> Csr {
        Csr {
            offsets: vec![0; rows + 1],
            indices: Vec::new(),
        }
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
        Csr { offsets, indices }
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
        Csr { offsets, indices }
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
        Csr { offsets, indices }
    }

    /// Assembles a CSR directly from raw parts.
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
        Csr { offsets, indices }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stored entries.
    #[inline]
    pub fn entries(&self) -> usize {
        self.indices.len()
    }

    /// The neighbors of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        &self.indices[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Length of row `i` (the paper's `neighlen[i]`).
    #[inline]
    pub fn row_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The raw offsets array (the paper's regularized `neighindex[]`).
    #[inline]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw indices array (the paper's `neighlist[]`).
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
        Csr { offsets, indices }
    }

    /// The full (symmetric) adjacency of a half one: `self` united with its
    /// mirror.
    ///
    /// `self` must be strictly upper triangular with ascending rows (every
    /// `j` in row `i` is above `i`), as a half neighbor list is. Full row
    /// `i` is then the mirror row — the ids below `i`, ascending because
    /// [`Csr::mirrored`] visits rows in order — followed by the half row,
    /// so both are copied straight into place and the result's rows are
    /// ascending.
    pub fn symmetrized(&self) -> Csr {
        debug_assert!(
            self.iter_rows()
                .all(|(i, r)| r.first().is_none_or(|&j| j as usize > i)
                    && r.windows(2).all(|w| w[0] < w[1])),
            "symmetrized needs a strictly upper-triangular CSR with ascending rows"
        );
        let mirror = self.mirrored();
        let offsets: Vec<u32> = self
            .offsets
            .iter()
            .zip(&mirror.offsets)
            .map(|(&a, &b)| a.checked_add(b).expect("CSR entry count overflows u32"))
            .collect();
        let mut indices = Vec::with_capacity(2 * self.entries());
        for i in 0..self.rows() {
            indices.extend_from_slice(mirror.row(i));
            indices.extend_from_slice(self.row(i));
        }
        Csr { offsets, indices }
    }

    /// Heap bytes used by the structure (for memory-overhead reporting; the
    /// paper motivates SDC partly by EAM's memory pressure).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * std::mem::size_of::<u32>()
            + self.indices.capacity() * std::mem::size_of::<u32>()
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

    #[test]
    fn heap_bytes_counts_both_arrays() {
        let c = sample();
        assert!(c.heap_bytes() >= (c.offsets().len() + c.indices().len()) * 4);
    }
}
