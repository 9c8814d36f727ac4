//! Contiguous ghost-extended 3-D arrays in Fortran (i-fastest) order.

use mas_grid::{IndexSpace3, NGHOST};

/// A dense 3-D array of `f64` with `NGHOST` ghost layers on every axis.
///
/// Logical (ghost-free) dimensions are `(n1, n2, n3)`; storage dimensions
/// are `(n1+2g, n2+2g, n3+2g)`. Index `(i, j, k)` is a *storage* index
/// (ghost-extended), so interior points start at `NGHOST`.
#[derive(Clone, Debug, PartialEq)]
pub struct Array3 {
    /// Logical dimension (without ghosts) along axis 1.
    pub n1: usize,
    /// Logical dimension along axis 2.
    pub n2: usize,
    /// Logical dimension along axis 3.
    pub n3: usize,
    /// Storage dimension (with ghosts) along axis 1.
    pub s1: usize,
    /// Storage dimension along axis 2.
    pub s2: usize,
    /// Storage dimension along axis 3.
    pub s3: usize,
    data: Vec<f64>,
}

impl Array3 {
    /// Zero-initialized array of logical dims `(n1, n2, n3)`.
    pub fn zeros(n1: usize, n2: usize, n3: usize) -> Self {
        let (s1, s2, s3) = (n1 + 2 * NGHOST, n2 + 2 * NGHOST, n3 + 2 * NGHOST);
        Self {
            n1,
            n2,
            n3,
            s1,
            s2,
            s3,
            data: vec![0.0; s1 * s2 * s3],
        }
    }

    /// Array filled with a constant.
    pub fn constant(n1: usize, n2: usize, n3: usize, v: f64) -> Self {
        let mut a = Self::zeros(n1, n2, n3);
        a.fill(v);
        a
    }

    /// Flat storage length.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false — arrays are never empty (dims ≥ 1 enforced by `zeros`).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Storage bytes (for buffer registration with the device model).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Flat index of `(i, j, k)` (storage indices).
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.s1 && j < self.s2 && k < self.s3);
        i + self.s1 * (j + self.s2 * k)
    }

    /// Read element.
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        self.data[self.idx(i, j, k)]
    }

    /// Write element.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, k: usize, v: f64) {
        let ix = self.idx(i, j, k);
        self.data[ix] = v;
    }

    /// Add to element.
    #[inline(always)]
    pub fn add(&mut self, i: usize, j: usize, k: usize, v: f64) {
        let ix = self.idx(i, j, k);
        self.data[ix] += v;
    }

    /// Raw storage (tests, I/O).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Raw mutable storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Fill the whole storage (ghosts included).
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Copy everything from `other` (dims must match).
    pub fn copy_from(&mut self, other: &Array3) {
        assert_eq!(
            (self.s1, self.s2, self.s3),
            (other.s1, other.s2, other.s3),
            "copy_from: dimension mismatch"
        );
        self.data.copy_from_slice(&other.data);
    }

    /// `self += a * x` over the whole storage.
    pub fn axpy(&mut self, a: f64, x: &Array3) {
        assert_eq!(self.len(), x.len());
        for (s, &v) in self.data.iter_mut().zip(&x.data) {
            *s += a * v;
        }
    }

    /// Scale the whole storage.
    pub fn scale(&mut self, a: f64) {
        for v in &mut self.data {
            *v *= a;
        }
    }

    /// The interior index space of this array (storage indices).
    pub fn interior(&self) -> IndexSpace3 {
        IndexSpace3 {
            i0: NGHOST,
            i1: NGHOST + self.n1,
            j0: NGHOST,
            j1: NGHOST + self.n2,
            k0: NGHOST,
            k1: NGHOST + self.n3,
        }
    }

    /// Maximum |value| over a block.
    pub fn max_abs(&self, b: &IndexSpace3) -> f64 {
        let mut m = 0.0_f64;
        b.for_each(|i, j, k| m = m.max(self.get(i, j, k).abs()));
        m
    }

    /// Sum over a block.
    pub fn sum(&self, b: &IndexSpace3) -> f64 {
        let mut s = 0.0;
        b.for_each(|i, j, k| s += self.get(i, j, k));
        s
    }

    /// Minimum over a block.
    pub fn min(&self, b: &IndexSpace3) -> f64 {
        let mut m = f64::INFINITY;
        b.for_each(|i, j, k| m = m.min(self.get(i, j, k)));
        m
    }

    /// True if any element of the block is NaN or infinite.
    pub fn has_non_finite(&self, b: &IndexSpace3) -> bool {
        let mut bad = false;
        b.for_each(|i, j, k| bad |= !self.get(i, j, k).is_finite());
        bad
    }

    /// Copy a k-plane (all `i`, `j` at fixed `k`) into `buf`;
    /// returns the number of values written. The plane is contiguous in
    /// storage, so this is a single memcpy — the cheap direction, which is
    /// why the MPI decomposition is over φ.
    pub fn pack_k(&self, k: usize, buf: &mut [f64]) -> usize {
        let n = self.s1 * self.s2;
        assert!(buf.len() >= n, "pack buffer too small");
        let start = self.idx(0, 0, k);
        buf[..n].copy_from_slice(&self.data[start..start + n]);
        n
    }

    /// Fill a k-plane from `buf`; returns values consumed.
    pub fn unpack_k(&mut self, k: usize, buf: &[f64]) -> usize {
        let n = self.s1 * self.s2;
        assert!(buf.len() >= n, "unpack buffer too small");
        let start = self.idx(0, 0, k);
        self.data[start..start + n].copy_from_slice(&buf[..n]);
        n
    }

    /// Size of one k-plane in values.
    pub fn k_plane_len(&self) -> usize {
        self.s1 * self.s2
    }

    /// Borrow the contiguous innermost-axis (i) window `i0..i1` of the
    /// row at `(j, k)` — the row-sliced read path for SIMD-friendly
    /// kernel bodies. Rows are contiguous in storage (i is the fastest
    /// axis), so the optimizer sees a plain `&[f64]` it can vectorize
    /// over; shifted windows (e.g. `row(i0+1, i1+1, j, k)`) express
    /// stencil neighbour reads without per-element index arithmetic.
    #[inline]
    pub fn row(&self, i0: usize, i1: usize, j: usize, k: usize) -> &[f64] {
        debug_assert!(i0 <= i1 && i1 <= self.s1 && j < self.s2 && k < self.s3);
        let start = i0 + self.s1 * (j + self.s2 * k);
        &self.data[start..start + (i1 - i0)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_fortran_order() {
        let a = Array3::zeros(4, 3, 2);
        assert_eq!(a.idx(1, 0, 0) - a.idx(0, 0, 0), 1);
        assert_eq!(a.idx(0, 1, 0) - a.idx(0, 0, 0), a.s1);
        assert_eq!(a.idx(0, 0, 1) - a.idx(0, 0, 0), a.s1 * a.s2);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut a = Array3::zeros(3, 3, 3);
        a.set(2, 1, 3, 7.5);
        assert_eq!(a.get(2, 1, 3), 7.5);
        a.add(2, 1, 3, 0.5);
        assert_eq!(a.get(2, 1, 3), 8.0);
    }

    #[test]
    fn axpy_accumulates() {
        let y = Array3::constant(2, 2, 2, 2.0);
        let mut z = Array3::constant(2, 2, 2, 4.0);
        z.axpy(0.5, &y);
        assert_eq!(z.get(1, 1, 1), 5.0);
    }

    #[test]
    fn block_reductions() {
        let mut a = Array3::zeros(2, 2, 2);
        let b = a.interior();
        a.set(1, 1, 1, -5.0);
        a.set(2, 2, 2, 3.0);
        assert_eq!(a.max_abs(&b), 5.0);
        assert_eq!(a.sum(&b), -2.0);
        assert_eq!(a.min(&b), -5.0);
    }

    #[test]
    fn pack_unpack_k_roundtrip() {
        let mut a = Array3::zeros(3, 4, 5);
        let n = a.k_plane_len();
        for j in 0..a.s2 {
            for i in 0..a.s1 {
                a.set(i, j, 2, (i * 10 + j) as f64);
            }
        }
        let mut buf = vec![0.0; n];
        assert_eq!(a.pack_k(2, &mut buf), n);
        let mut b = Array3::zeros(3, 4, 5);
        assert_eq!(b.unpack_k(6, &buf), n);
        for j in 0..a.s2 {
            for i in 0..a.s1 {
                assert_eq!(b.get(i, j, 6), (i * 10 + j) as f64);
            }
        }
    }

    #[test]
    fn non_finite_detection() {
        let mut a = Array3::zeros(2, 2, 2);
        assert!(!a.has_non_finite(&a.interior()));
        a.set(1, 1, 1, f64::NAN);
        assert!(a.has_non_finite(&a.interior()));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn copy_from_checks_dims() {
        let mut a = Array3::zeros(2, 2, 2);
        let b = Array3::zeros(3, 2, 2);
        a.copy_from(&b);
    }
}
