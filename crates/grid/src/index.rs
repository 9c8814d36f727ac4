//! Index spaces: loop bounds over ghost-extended staggered arrays.
//!
//! Every kernel in the solver iterates over a rectangular block of indices
//! of a ghost-extended array. [`IndexSpace3`] names that block once so loop
//! bounds are not re-derived (and mis-derived) at every call site — the Rust
//! analogue of the `do concurrent (k=1:n3, j=1:n2, i=1:n1)` header.

use crate::{Stagger, NGHOST};

/// A rectangular iteration block `[i0..i1) × [j0..j1) × [k0..k1)` over a
/// ghost-extended array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexSpace3 {
    /// First index along axis 1 (inclusive).
    pub i0: usize,
    /// Last index along axis 1 (exclusive).
    pub i1: usize,
    /// First index along axis 2 (inclusive).
    pub j0: usize,
    /// Last index along axis 2 (exclusive).
    pub j1: usize,
    /// First index along axis 3 (inclusive).
    pub k0: usize,
    /// Last index along axis 3 (exclusive).
    pub k1: usize,
}

impl IndexSpace3 {
    /// The full interior of a field with staggering `s` on an
    /// `(nr, nt, np)`-cell grid with the standard ghost width.
    pub fn interior(s: Stagger, nr: usize, nt: usize, np: usize) -> Self {
        let (n1, n2, n3) = s.dims(nr, nt, np);
        let g = NGHOST;
        Self {
            i0: g,
            i1: g + n1,
            j0: g,
            j1: g + n2,
            k0: g,
            k1: g + n3,
        }
    }

    /// Interior block excluding the first and last plane along each axis
    /// where `trim` is 1 — used for updates that must not touch boundary
    /// faces (e.g. the normal-velocity faces on the radial boundaries).
    pub fn interior_trimmed(
        s: Stagger,
        nr: usize,
        nt: usize,
        np: usize,
        trim: (usize, usize, usize),
    ) -> Self {
        let mut b = Self::interior(s, nr, nt, np);
        b.i0 += trim.0;
        b.i1 -= trim.0;
        b.j0 += trim.1;
        b.j1 -= trim.1;
        b.k0 += trim.2;
        b.k1 -= trim.2;
        assert!(b.i0 < b.i1 && b.j0 < b.j1 && b.k0 < b.k1, "over-trimmed block");
        b
    }

    /// Total number of points in the block.
    pub fn len(&self) -> usize {
        (self.i1 - self.i0) * (self.j1 - self.j0) * (self.k1 - self.k0)
    }

    /// True if the block is empty.
    pub fn is_empty(&self) -> bool {
        self.i0 >= self.i1 || self.j0 >= self.j1 || self.k0 >= self.k1
    }

    /// Extent along each axis.
    pub fn extents(&self) -> (usize, usize, usize) {
        (self.i1 - self.i0, self.j1 - self.j0, self.k1 - self.k0)
    }

    /// Serial iteration helper: calls `f(i, j, k)` for every point with `i`
    /// fastest (Fortran / MAS memory order). Execution-model aware code
    /// should go through `stdpar` instead; this is for tests and setup.
    pub fn for_each<F: FnMut(usize, usize, usize)>(&self, mut f: F) {
        for k in self.k0..self.k1 {
            for j in self.j0..self.j1 {
                for i in self.i0..self.i1 {
                    f(i, j, k);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_counts() {
        let b = IndexSpace3::interior(Stagger::CellCenter, 4, 5, 6);
        assert_eq!(b.len(), 4 * 5 * 6);
        let b = IndexSpace3::interior(Stagger::FaceR, 4, 5, 6);
        assert_eq!(b.len(), 5 * 5 * 6);
        assert_eq!(b.i0, NGHOST);
    }

    #[test]
    fn trimmed_block() {
        let b = IndexSpace3::interior_trimmed(Stagger::FaceR, 4, 5, 6, (1, 0, 0));
        assert_eq!(b.extents(), (3, 5, 6));
    }

    #[test]
    fn for_each_visits_every_point_in_order() {
        let b = IndexSpace3 { i0: 0, i1: 2, j0: 0, j1: 2, k0: 0, k1: 1 };
        let mut seen = vec![];
        b.for_each(|i, j, k| seen.push((i, j, k)));
        assert_eq!(seen, vec![(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]);
    }

    #[test]
    #[should_panic(expected = "over-trimmed")]
    fn over_trim_panics() {
        IndexSpace3::interior_trimmed(Stagger::CellCenter, 2, 2, 2, (1, 1, 1));
    }
}
