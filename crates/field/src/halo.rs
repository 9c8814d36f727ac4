//! φ-direction halo pack/unpack helpers.
//!
//! The MPI decomposition is a 1-D slab split over φ (the slowest storage
//! index), so each exchanged plane is one contiguous block per array.
//! A [`PhiHalo`] owns the staging buffers for a set of arrays so repeated
//! exchanges don't allocate.

use crate::Array3;
use mas_grid::NGHOST;
use std::sync::Arc;

/// Pack the first (`low = true`) or last interior φ-plane of `a` into `buf`.
/// Returns values written.
pub fn pack_phi_plane(a: &Array3, low: bool, buf: &mut [f64]) -> usize {
    let k = if low { NGHOST } else { NGHOST + a.n3 - 1 };
    a.pack_k(k, buf)
}

/// Unpack `buf` into the low (`low = true`) or high ghost φ-plane of `a`.
/// Returns values consumed.
pub fn unpack_phi_plane(a: &mut Array3, low: bool, buf: &[f64]) -> usize {
    let k = if low { NGHOST - 1 } else { NGHOST + a.n3 };
    a.unpack_k(k, buf)
}

/// Reusable staging buffers for the φ halo exchange of several arrays.
///
/// The send buffers are `Arc`-backed so an exchange can put them on the
/// wire without copying. A zero-copy send leaves the buffer shared until
/// the receiver drops its reference, so [`PhiHalo::pack`] rotates in a
/// spare buffer when the current one is still in flight. A lockstep
/// exchange has at most one earlier payload per direction in flight when
/// it packs: a neighbour drops our previous planes before it sends the
/// planes we just received. [`PhiHalo::for_arrays`] reserves that one
/// spare per direction up front, so packing never allocates, whatever
/// the thread timing.
#[derive(Debug)]
pub struct PhiHalo {
    /// Send buffer toward the low-φ neighbour (shareable zero-copy).
    pub send_low: Arc<Vec<f64>>,
    /// Send buffer toward the high-φ neighbour (shareable zero-copy).
    pub send_high: Arc<Vec<f64>>,
    /// Receive buffer from the low-φ neighbour.
    pub recv_low: Vec<f64>,
    /// Receive buffer from the high-φ neighbour.
    pub recv_high: Vec<f64>,
    /// Per-array plane sizes (values), in pack order.
    plane_lens: Vec<usize>,
    /// Idle send buffers awaiting reuse (a direction's previous payload
    /// stays here until its receiver drops it).
    spares: Vec<Arc<Vec<f64>>>,
}

impl PhiHalo {
    /// Staging for the given arrays (by their plane sizes).
    pub fn for_arrays(arrays: &[&Array3]) -> Self {
        let plane_lens: Vec<usize> = arrays.iter().map(|a| a.k_plane_len()).collect();
        let total: usize = plane_lens.iter().sum();
        Self {
            send_low: Arc::new(vec![0.0; total]),
            send_high: Arc::new(vec![0.0; total]),
            recv_low: vec![0.0; total],
            recv_high: vec![0.0; total],
            plane_lens,
            spares: vec![Arc::new(vec![0.0; total]), Arc::new(vec![0.0; total])],
        }
    }

    /// Total staged values per direction.
    pub fn total_len(&self) -> usize {
        self.plane_lens.iter().sum()
    }

    /// Total staged bytes per direction.
    pub fn total_bytes(&self) -> usize {
        self.total_len() * std::mem::size_of::<f64>()
    }

    /// Spare send buffers currently pooled, idle or still in flight
    /// (diagnostic).
    pub fn spare_count(&self) -> usize {
        self.spares.len()
    }

    /// Swap `slot` for an unshared buffer if a receiver still holds the
    /// current one: reuse a free spare when available, allocate otherwise,
    /// and park the in-flight buffer in the spares pool until its receiver
    /// lets go.
    fn rotate_if_shared(slot: &mut Arc<Vec<f64>>, spares: &mut Vec<Arc<Vec<f64>>>, total: usize) {
        if Arc::get_mut(slot).is_some() {
            return;
        }
        let fresh = match spares.iter().position(|s| Arc::strong_count(s) == 1) {
            Some(pos) => spares.swap_remove(pos),
            None => Arc::new(vec![0.0; total]),
        };
        spares.push(std::mem::replace(slot, fresh));
    }

    /// Pack all arrays' boundary planes into the send buffers.
    /// `arrays` must match the constructor's order and sizes.
    pub fn pack(&mut self, arrays: &[&Array3]) {
        self.pack_planes(arrays.iter().map(|a| &**a), arrays.len());
    }

    /// [`PhiHalo::pack`] over the exchanger's mutable array set — avoids
    /// collecting a temporary `&Array3` slice per exchange.
    pub fn pack_mut(&mut self, arrays: &[&mut Array3]) {
        self.pack_planes(arrays.iter().map(|a| &**a), arrays.len());
    }

    fn pack_planes<'a>(&mut self, arrays: impl Iterator<Item = &'a Array3>, n: usize) {
        assert_eq!(n, self.plane_lens.len());
        let total: usize = self.plane_lens.iter().sum();
        Self::rotate_if_shared(&mut self.send_low, &mut self.spares, total);
        Self::rotate_if_shared(&mut self.send_high, &mut self.spares, total);
        let send_low = Arc::get_mut(&mut self.send_low).expect("unshared after rotation");
        let send_high = Arc::get_mut(&mut self.send_high).expect("unshared after rotation");
        let mut off = 0;
        for (a, &len) in arrays.zip(&self.plane_lens) {
            assert_eq!(a.k_plane_len(), len, "array shape changed since construction");
            pack_phi_plane(a, true, &mut send_low[off..off + len]);
            pack_phi_plane(a, false, &mut send_high[off..off + len]);
            off += len;
        }
    }

    /// Unpack the receive buffers into all arrays' ghost planes.
    pub fn unpack(&self, arrays: &mut [&mut Array3]) {
        assert_eq!(arrays.len(), self.plane_lens.len());
        let mut off = 0;
        for (a, &len) in arrays.iter_mut().zip(&self.plane_lens) {
            unpack_phi_plane(a, true, &self.recv_low[off..off + len]);
            unpack_phi_plane(a, false, &self.recv_high[off..off + len]);
            off += len;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_periodic_wrap_via_halo() {
        // With one rank, the low send buffer becomes the high recv buffer
        // and vice versa (periodic wrap). Verify the ghost planes end up
        // equal to the opposite interior planes.
        let mut a = Array3::zeros(3, 3, 4);
        for k in 0..a.s3 {
            for j in 0..a.s2 {
                for i in 0..a.s1 {
                    a.set(i, j, k, (100 * k + 10 * j + i) as f64);
                }
            }
        }
        let mut h = PhiHalo::for_arrays(&[&a]);
        h.pack(&[&a]);
        // self-exchange: low->high, high->low
        h.recv_low.copy_from_slice(&h.send_high);
        h.recv_high.copy_from_slice(&h.send_low);
        {
            let mut arrays = [&mut a];
            h.unpack(&mut arrays);
        }
        // Low ghost (k = 0) equals last interior (k = NGHOST + 3).
        for j in 0..a.s2 {
            for i in 0..a.s1 {
                assert_eq!(a.get(i, j, 0), a.get(i, j, NGHOST + 3));
                assert_eq!(a.get(i, j, NGHOST + 4), a.get(i, j, NGHOST));
            }
        }
    }

    #[test]
    fn multi_array_offsets() {
        let a = Array3::zeros(2, 2, 3);
        let b = Array3::zeros(4, 4, 3);
        let h = PhiHalo::for_arrays(&[&a, &b]);
        assert_eq!(h.total_len(), a.k_plane_len() + b.k_plane_len());
        assert_eq!(h.total_bytes(), h.total_len() * 8);
    }

    #[test]
    fn pack_rotates_in_flight_send_buffers_and_reuses_them() {
        let a = Array3::zeros(2, 2, 3);
        let mut h = PhiHalo::for_arrays(&[&a]);
        h.pack(&[&a]);
        // Simulate zero-copy sends still held by a receiver.
        let in_flight_low = Arc::clone(&h.send_low);
        let in_flight_high = Arc::clone(&h.send_high);
        h.pack(&[&a]);
        assert!(
            !Arc::ptr_eq(&in_flight_low, &h.send_low),
            "shared buffer must be rotated out, not mutated under the receiver"
        );
        assert_eq!(h.spare_count(), 2, "both in-flight buffers parked as spares");
        // Receiver lets go: the parked buffers become reusable, the pool
        // stops growing.
        drop(in_flight_low);
        drop(in_flight_high);
        let now_free_low = Arc::clone(&h.send_low);
        let now_free_high = Arc::clone(&h.send_high);
        drop(now_free_high);
        let _hold = now_free_low; // keep only the low buffer in flight
        h.pack(&[&a]);
        assert_eq!(h.spare_count(), 2, "steady state reuses spares, never grows");
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn pack_rejects_mismatched_arrays() {
        let a = Array3::zeros(2, 2, 3);
        let mut h = PhiHalo::for_arrays(&[&a]);
        let c = Array3::zeros(5, 5, 3);
        h.pack(&[&c]);
    }
}
