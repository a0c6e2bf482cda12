//! Scatter values and pair contributions.
//!
//! The two irregular reductions in the paper are structurally identical:
//!
//! * electron densities — `rho[i] += f(r); rho[j] += f(r)` (its Fig. 1/7);
//! * forces — `force[i] += f⃗; force[j] -= f⃗` (its Fig. 2/8);
//!
//! i.e. a per-pair kernel produces one contribution for each endpoint, and
//! the strategy decides *how* those contributions reach the shared array.
//! [`ScatterValue`] abstracts over the accumulated type (`f64` for
//! densities, [`Vec3`] for forces) so every strategy is written once.

use md_base::pool::SharedSlice;
use md_geometry::Vec3;
use md_neighbor::Csr;
use std::sync::atomic::{AtomicU64, Ordering};

/// A value that pair kernels accumulate into a shared per-atom array.
pub trait ScatterValue: Copy + Send + Sync + PartialEq + std::fmt::Debug + 'static {
    /// The additive identity.
    fn zero() -> Self;

    /// In-place addition.
    fn add(&mut self, rhs: Self);

    /// Lock-free atomic addition at `target`, implemented with per-lane
    /// compare-exchange loops on the `f64` bit patterns. Used by the
    /// `Atomic` baseline strategy.
    ///
    /// # Safety
    /// `target` must be valid for reads and writes, and every concurrent
    /// access to it for the duration of the scatter must go through this
    /// method (no plain loads/stores).
    unsafe fn atomic_add(target: *mut Self, rhs: Self);
}

/// CAS-loop add of one `f64` lane through an `AtomicU64` view.
///
/// # Safety
/// Same contract as [`ScatterValue::atomic_add`], for one lane.
#[inline]
unsafe fn atomic_add_f64(target: *mut f64, rhs: f64) {
    // SAFETY: caller guarantees validity and atomic-only concurrent access;
    // f64 and AtomicU64 have the same size and alignment.
    let atom = unsafe { &*(target as *const AtomicU64) };
    let mut cur = atom.load(Ordering::Relaxed);
    loop {
        let new = f64::to_bits(f64::from_bits(cur) + rhs);
        match atom.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

impl ScatterValue for f64 {
    #[inline]
    fn zero() -> f64 {
        0.0
    }

    #[inline]
    fn add(&mut self, rhs: f64) {
        *self += rhs;
    }

    #[inline]
    unsafe fn atomic_add(target: *mut f64, rhs: f64) {
        // SAFETY: forwarded contract.
        unsafe { atomic_add_f64(target, rhs) }
    }
}

impl ScatterValue for Vec3 {
    #[inline]
    fn zero() -> Vec3 {
        Vec3::ZERO
    }

    #[inline]
    fn add(&mut self, rhs: Vec3) {
        *self += rhs;
    }

    #[inline]
    unsafe fn atomic_add(target: *mut Vec3, rhs: Vec3) {
        // SAFETY: Vec3 is repr(C) of three f64 lanes; forwarded contract
        // holds per lane.
        unsafe {
            let base = target as *mut f64;
            atomic_add_f64(base, rhs.x);
            atomic_add_f64(base.add(1), rhs.y);
            atomic_add_f64(base.add(2), rhs.z);
        }
    }
}

/// The two endpoint contributions a pair kernel produces for a stored pair
/// `(i, j)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairTerm<V> {
    /// Added to `out[i]`.
    pub to_i: V,
    /// Added to `out[j]`.
    pub to_j: V,
}

impl<V: ScatterValue> PairTerm<V> {
    /// A symmetric contribution (densities of a single species:
    /// `f(r)` flows both ways).
    #[inline]
    pub fn symmetric(v: V) -> PairTerm<V> {
        PairTerm { to_i: v, to_j: v }
    }
}

impl PairTerm<Vec3> {
    /// A Newton's-third-law contribution: `+f⃗` to `i`, `−f⃗` to `j`.
    #[inline]
    pub fn newton(f: Vec3) -> PairTerm<Vec3> {
        PairTerm { to_i: f, to_j: -f }
    }
}

/// A pair kernel: given a stored pair `(i, j)`, produce the endpoint
/// contributions, or `None` when the pair is currently outside the true
/// cutoff (Verlet skin pairs).
///
/// **Contract for gather-based strategies** (`Redundant`): the kernel must
/// be *endpoint-symmetric*, i.e. `kernel(j, i).to_i == kernel(i, j).to_j`.
/// Both MD kernels satisfy this (densities symmetric, forces antisymmetric).
pub trait PairKernel<V: ScatterValue>: Fn(usize, usize) -> Option<PairTerm<V>> + Sync {}
impl<V: ScatterValue, K: Fn(usize, usize) -> Option<PairTerm<V>> + Sync> PairKernel<V> for K {}

/// The half-list rows one task of a row-owning sweep owns (see
/// [`crate::ScatterExec::run_tasks`]), in the order the task visits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskRows<'a> {
    /// Rows `0..n`, ascending: the serial sweep's single task.
    All(usize),
    /// One subdomain's atoms, [`crate::SdcPlan::atoms_of`].
    Atoms(&'a [u32]),
}

impl<'a> IntoIterator for TaskRows<'a> {
    type Item = usize;
    type IntoIter = TaskRowsIter<'a>;

    /// The rows, in visiting order. A plain loop, not a closure, so a
    /// kernel's row body compiles inside the kernel's own function (and
    /// under its `#[target_feature]`s).
    #[inline]
    fn into_iter(self) -> TaskRowsIter<'a> {
        match self {
            TaskRows::All(n) => TaskRowsIter::All(0..n),
            TaskRows::Atoms(atoms) => TaskRowsIter::Atoms(atoms.iter()),
        }
    }
}

/// The iterator of [`TaskRows`].
#[derive(Debug, Clone)]
pub enum TaskRowsIter<'a> {
    /// [`TaskRows::All`]'s rows.
    All(std::ops::Range<usize>),
    /// [`TaskRows::Atoms`]' rows.
    Atoms(std::slice::Iter<'a, u32>),
}

impl Iterator for TaskRowsIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            TaskRowsIter::All(rows) => rows.next(),
            TaskRowsIter::Atoms(atoms) => atoms.next().map(|&i| i as usize),
        }
    }
}

/// One task of a per-pair sweep: for each owned row `i` and each stored
/// neighbor `j`, `out[i] += to_i` and `out[j] += to_j`.
///
/// # Safety
/// While this runs, no other thread may access `out[i]` for a row `i` of
/// `rows` or `out[j]` for a stored neighbor `j` of such a row.
#[inline]
pub(crate) unsafe fn pair_task<V: ScatterValue>(
    half: &Csr,
    rows: TaskRows<'_>,
    out: &SharedSlice<'_, V>,
    kernel: &impl Fn(usize, usize) -> Option<PairTerm<V>>,
) {
    for i in rows {
        for &j in half.row(i) {
            if let Some(t) = kernel(i, j as usize) {
                // SAFETY: the caller's contract covers `out[i]` and `out[j]`.
                unsafe {
                    out.get_mut(i).add(t.to_i);
                    out.get_mut(j as usize).add(t.to_j);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn zero_and_add() {
        let mut x = f64::zero();
        x.add(2.5);
        x.add(-1.0);
        assert_eq!(x, 1.5);
        let mut v = Vec3::zero();
        v.add(Vec3::new(1.0, 2.0, 3.0));
        v.add(Vec3::new(0.5, 0.0, -3.0));
        assert_eq!(v, Vec3::new(1.5, 2.0, 0.0));
    }

    #[test]
    fn pair_term_constructors() {
        let s = PairTerm::symmetric(2.0);
        assert_eq!(s.to_i, 2.0);
        assert_eq!(s.to_j, 2.0);
        let n = PairTerm::newton(Vec3::new(1.0, -2.0, 0.5));
        assert_eq!(n.to_i, Vec3::new(1.0, -2.0, 0.5));
        assert_eq!(n.to_j, Vec3::new(-1.0, 2.0, -0.5));
    }

    #[test]
    fn atomic_add_f64_accumulates_under_contention() {
        let data = Arc::new(vec![0.0f64; 1]);
        let ptr = data.as_ptr() as usize;
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        // SAFETY: all concurrent access goes through atomic_add.
                        unsafe { f64::atomic_add(ptr as *mut f64, 1.0) };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(data[0], 4000.0);
    }

    #[test]
    fn atomic_add_vec3_accumulates_under_contention() {
        let data = Arc::new(vec![Vec3::ZERO; 1]);
        let ptr = data.as_ptr() as usize;
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        // SAFETY: all concurrent access goes through atomic_add.
                        unsafe {
                            Vec3::atomic_add(
                                ptr as *mut Vec3,
                                Vec3::new(1.0, 2.0, t as f64),
                            )
                        };
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(data[0].x, 2000.0);
        assert_eq!(data[0].y, 4000.0);
        assert_eq!(data[0].z, (0.0 + 1.0 + 2.0 + 3.0) * 500.0);
    }
}
