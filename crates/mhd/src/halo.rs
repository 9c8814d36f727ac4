//! The φ-direction halo exchange — where the paper's unified-memory story
//! plays out (Fig. 4).
//!
//! Each exchange:
//!
//! 1. **pack** kernels copy the boundary φ-planes into staging buffers
//!    (GPU kernels; the buffers end up device-resident);
//! 2. the transfer path depends on the data mode:
//!    * manual memory ⇒ CUDA-aware MPI with `host_data use_device` —
//!      GPU **peer-to-peer** transfers;
//!    * unified memory ⇒ the MPI library touches the buffers from the
//!      host, forcing **page migrations** D2H before the send and H2D
//!      after the receive (plus a host-staged wire path);
//! 3. **unpack** kernels scatter the received planes into the ghost
//!    layers.
//!
//! All of it is booked into the MPI phase, reproducing the paper's
//! "MPI time (including buffer loading/unloading and waits)" split.

use crate::sites;
use gpusim::{BufferId, Phase, Residency, Traffic};
use mas_field::{Array3, PhiHalo};
use mas_grid::IndexSpace3;
use minimpi::{Comm, NetPath};
use std::sync::Arc;
use stdpar::Par;

/// Fixed host-side cost per halo exchange: device synchronization before
/// the MPI calls, MPI stack latency, and send/recv buffer bookkeeping
/// (the "buffer initialization" component of the paper's MPI timing).
const MPI_CALL_OVERHEAD_US: f64 = 40.0;

/// Fixed unified-memory penalty per halo exchange: the page-fault storm
/// the MPI library triggers when it touches managed buffers from the host
/// (driver serialization + fault servicing — the dominant, size-
/// independent cost visible in the paper's Fig. 4 bottom panel, and the
/// reason the paper's UM MPI time stays ~40 min at every GPU count).
const UM_EXCHANGE_OVERHEAD_US: f64 = 950.0;

/// Message tags by direction of travel: `TAG_DOWN` messages go to the
/// low-φ neighbour, `TAG_UP` to the high-φ neighbour. Tagging by travel
/// direction (and receiving DOWN before UP) keeps the per-pair FIFO
/// consistent even when both neighbours are the same rank (P ≤ 2).
const TAG_DOWN: u32 = 1;
const TAG_UP: u32 = 2;

/// Reusable halo machinery for one fixed set of arrays.
pub struct HaloExchanger {
    halo: PhiHalo,
    /// Staging-buffer ids: [send_low, send_high, recv_low, recv_high].
    bufs: [BufferId; 4],
    /// Paper-scale factor for this exchange's costs (plane ⇒ area scale).
    cost_scale: f64,
    /// Cached copy of the caller's `field_bufs` list — rebuilt only when
    /// the ids change, instead of `to_vec()` on every exchange.
    bufid_cache: Vec<BufferId>,
}

impl HaloExchanger {
    /// Build for a fixed array set (shapes must not change later); the
    /// staging buffers are registered with the device model under `label`.
    pub fn new(par: &mut Par, arrays: &[&Array3], label: &'static str) -> Self {
        Self::new_scaled(par, arrays, label, 1.0)
    }

    /// Like [`HaloExchanger::new`] with a paper-scale cost factor: staging
    /// buffers, pack/unpack kernels, wire transfers — and the size
    /// reported by [`HaloExchanger::bytes_per_direction`] — are all
    /// charged at `cost_scale` × the actual plane size, so every
    /// model-facing number for this exchange agrees on one scaled size.
    pub fn new_scaled(
        par: &mut Par,
        arrays: &[&Array3],
        label: &'static str,
        cost_scale: f64,
    ) -> Self {
        let halo = PhiHalo::for_arrays(arrays);
        let bytes = (halo.total_bytes() as f64 * cost_scale) as usize;
        let bufs = [
            par.ctx.mem.register(bytes, label),
            par.ctx.mem.register(bytes, label),
            par.ctx.mem.register(bytes, label),
            par.ctx.mem.register(bytes, label),
        ];
        if par.ctx.mem.mode() == gpusim::DataMode::Manual {
            for b in bufs {
                par.ctx.enter_data(b);
            }
        }
        par.host_data_site(label);
        Self {
            halo,
            bufs,
            cost_scale,
            bufid_cache: Vec::new(),
        }
    }

    /// Total staged bytes per direction, at the same `cost_scale` the
    /// staging buffers were registered with (and the wire transfers are
    /// charged at) — previously this reported the *unscaled* plane size,
    /// disagreeing with every other number the exchanger books.
    pub fn bytes_per_direction(&self) -> usize {
        (self.halo.total_bytes() as f64 * self.cost_scale) as usize
    }

    /// Exchange the boundary planes of `arrays` (same set/order as at
    /// construction) with the periodic φ neighbours. `field_bufs` are the
    /// model buffers of the arrays (for the pack/unpack kernel charges).
    pub fn exchange(
        &mut self,
        par: &mut Par,
        comm: &Comm,
        arrays: &mut [&mut Array3],
        field_bufs: &[BufferId],
    ) {
        // OpenACC versions flush async queues before MPI.
        let wp = par.site_id("pre_halo_wait");
        par.wait_point(wp);

        let prev = par.ctx.set_phase(Phase::Mpi);
        // Pack/unpack kernels and wire costs use the surface scale —
        // scoped so the halo's plane scale cannot leak into the next
        // bulk kernel.
        let scales = stdpar::CostScales::new(self.cost_scale, self.cost_scale);
        par.with_scales(scales, |par| self.exchange_inner(par, comm, arrays, field_bufs));
        par.ctx.set_phase(prev);
    }

    /// Body of [`HaloExchanger::exchange`], run under the halo's scoped
    /// cost scales.
    fn exchange_inner(
        &mut self,
        par: &mut Par,
        comm: &Comm,
        arrays: &mut [&mut Array3],
        field_bufs: &[BufferId],
    ) {
        let plane_vals = self.halo.total_len();

        // Host-side fixed cost of the MPI calls themselves.
        par.ctx.charge(
            MPI_CALL_OVERHEAD_US,
            gpusim::TimeCategory::MpiWait,
            "mpi_call_overhead",
        );

        if self.bufid_cache.as_slice() != field_bufs {
            self.bufid_cache.clear();
            self.bufid_cache.extend_from_slice(field_bufs);
        }

        // --- pack (GPU kernel; Pack category via the kernel name) ---
        {
            let wr = [self.bufs[0], self.bufs[1]];
            let space = IndexSpace3 {
                i0: 0,
                i1: plane_vals.max(1),
                j0: 0,
                j1: 2,
                k0: 0,
                k1: 1,
            };
            // Real pack happens once; the kernel body is the per-point
            // traffic accounting only.
            self.halo.pack_mut(arrays);
            par.loop3(
                &sites::HALO_PACK,
                space,
                Traffic::new(1, 1, 0),
                &self.bufid_cache,
                &wr,
                |_, _, _| {},
            );
        }

        // --- transfer path ---
        let p2p = par.ctx.mem.p2p_eligible();
        let path = if p2p { NetPath::DeviceP2P } else { NetPath::Host };
        if !p2p {
            // The MPI library touches the (UM) staging buffers from the
            // host: a fault storm (fixed driver cost) plus the page
            // migrations D2H before the wire transfer.
            par.ctx.charge(
                UM_EXCHANGE_OVERHEAD_US,
                gpusim::TimeCategory::PageMigration,
                "um_fault_storm",
            );
            par.host_access(self.bufs[0], false);
            par.host_access(self.bufs[1], false);
        }
        let (lo, hi) = comm.phi_neighbors();
        let wire_bytes = self.halo.total_bytes() as f64 * self.cost_scale;
        // Zero-copy: the packed planes go on the wire as `Arc` clones; the
        // receiver copies out of the shared buffer and drops it, releasing
        // the sender's slot for the next pack. My high ghost comes from the
        // high neighbour's low plane (its DOWN-travelling message); my low
        // ghost from the low neighbour's high plane (UP-travelling). DOWN
        // is received first to match the senders' FIFO order when lo == hi.
        comm.send_pooled(lo, TAG_DOWN, Arc::clone(&self.halo.send_low), path, &par.ctx, wire_bytes);
        comm.send_pooled(hi, TAG_UP, Arc::clone(&self.halo.send_high), path, &par.ctx, wire_bytes);
        let rh = comm.recv_shared(hi, TAG_DOWN, &mut par.ctx);
        let rl = comm.recv_shared(lo, TAG_UP, &mut par.ctx);
        self.halo.recv_low.copy_from_slice(&rl);
        self.halo.recv_high.copy_from_slice(&rh);

        // Where did the received data land?
        let landing = if p2p { Residency::Device } else { Residency::Host };
        par.ctx.mem.set_residency(self.bufs[2], landing);
        par.ctx.mem.set_residency(self.bufs[3], landing);

        // --- unpack (GPU kernel; UM pages fault back H2D here) ---
        {
            let ro = [self.bufs[2], self.bufs[3]];
            let space = IndexSpace3 {
                i0: 0,
                i1: plane_vals.max(1),
                j0: 0,
                j1: 2,
                k0: 0,
                k1: 1,
            };
            self.halo.unpack(arrays);
            par.loop3(
                &sites::HALO_UNPACK,
                space,
                Traffic::new(1, 1, 0),
                &ro,
                &self.bufid_cache,
                |_, _, _| {},
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::{DeviceSpec, TimeCategory};
    use mas_grid::NGHOST;
    use minimpi::World;
    use stdpar::CodeVersion;

    fn par(v: CodeVersion, rank: usize) -> Par {
        let mut spec = DeviceSpec::a100_40gb();
        spec.jitter_sigma = 0.0;
        let mut p = Par::builder(spec).version(v).rank(rank).seed(3).build();
        p.ctx.set_phase(gpusim::Phase::Compute);
        p
    }

    /// Exchange on P ranks: array values = global φ index; after the
    /// exchange, ghosts must hold the neighbours' plane values.
    fn run_exchange(nranks: usize, version: CodeVersion) -> Vec<(f64, f64, f64)> {
        World::run(nranks, move |comm| {
            let rank = comm.rank();
            let mut p = par(version, rank);
            let np_local = 4;
            let mut a = Array3::zeros(3, 3, np_local);
            // Fill interior with globally meaningful values.
            for kk in 0..np_local {
                let gk = rank * np_local + kk;
                for j in 0..a.s2 {
                    for i in 0..a.s1 {
                        a.set(i, j, NGHOST + kk, gk as f64);
                    }
                }
            }
            let buf = p.ctx.mem.register(a.bytes(), "a");
            if p.policy.data_mode == gpusim::DataMode::Manual {
                p.ctx.enter_data(buf);
            }
            let mut hx = HaloExchanger::new(&mut p, &[&a], "halo_test");
            let mut arrays = [&mut a];
            hx.exchange(&mut p, &comm, &mut arrays, &[buf]);
            let a = &arrays[0];
            (
                a.get(1, 1, 0),                    // low ghost
                a.get(1, 1, NGHOST + np_local),    // high ghost
                p.ctx.prof.phase_total_us(Phase::Mpi),
            )
        })
    }

    #[test]
    fn ghosts_match_periodic_neighbors_two_ranks() {
        let res = run_exchange(2, CodeVersion::A);
        // Rank 0: low neighbour is rank 1 (periodic), so low ghost = 7
        // (rank 1's last plane) and high ghost = 4 (rank 1's first plane).
        assert_eq!(res[0].0, 7.0);
        assert_eq!(res[0].1, 4.0);
        assert_eq!(res[1].0, 3.0);
        assert_eq!(res[1].1, 0.0);
    }

    #[test]
    fn single_rank_periodic_wrap() {
        let res = run_exchange(1, CodeVersion::A);
        assert_eq!(res[0].0, 3.0, "low ghost = own last plane");
        assert_eq!(res[0].1, 0.0, "high ghost = own first plane");
    }

    #[test]
    fn um_exchange_same_values_more_mpi_time() {
        let manual = run_exchange(2, CodeVersion::A);
        let um = run_exchange(2, CodeVersion::Adu);
        // Same physics.
        assert_eq!(manual[0].0, um[0].0);
        assert_eq!(manual[0].1, um[0].1);
        // UM pays page migrations inside the MPI phase.
        assert!(
            um[0].2 > 1.5 * manual[0].2,
            "UM MPI time {} should far exceed manual {}",
            um[0].2,
            manual[0].2
        );
    }

    #[test]
    fn bytes_per_direction_reports_the_scaled_size() {
        let mut p = par(CodeVersion::A, 0);
        let a = Array3::zeros(3, 3, 4);
        let unscaled = HaloExchanger::new(&mut p, &[&a], "halo_unscaled");
        let raw = unscaled.bytes_per_direction();
        assert!(raw > 0);
        let scaled = HaloExchanger::new_scaled(&mut p, &[&a], "halo_scaled", 16.0);
        assert_eq!(
            scaled.bytes_per_direction(),
            raw * 16,
            "report must match the staging buffers' registered (scaled) size"
        );
    }

    #[test]
    fn manual_mode_uses_p2p_category() {
        let cats = World::run(2, |comm| {
            let mut p = par(CodeVersion::A, comm.rank());
            let mut a = Array3::zeros(3, 3, 4);
            let buf = p.ctx.mem.register(a.bytes(), "a");
            p.ctx.enter_data(buf);
            let mut hx = HaloExchanger::new(&mut p, &[&a], "halo_test2");
            let mut arrays = [&mut a];
            hx.exchange(&mut p, &comm, &mut arrays, &[buf]);
            (
                p.ctx.prof.cat_total_us(TimeCategory::P2P),
                p.ctx.prof.cat_total_us(TimeCategory::PageMigration),
            )
        });
        for (p2p, mig) in cats {
            assert!(p2p > 0.0, "manual halo must ride NVLink");
            assert_eq!(mig, 0.0, "no paging under manual memory");
        }
    }

    #[test]
    fn um_mode_pays_page_migrations_not_p2p() {
        let cats = World::run(2, |comm| {
            let mut p = par(CodeVersion::D2xu, comm.rank());
            let mut a = Array3::zeros(3, 3, 4);
            let buf = p.ctx.mem.register(a.bytes(), "a");
            let mut hx = HaloExchanger::new(&mut p, &[&a], "halo_test3");
            let mut arrays = [&mut a];
            hx.exchange(&mut p, &comm, &mut arrays, &[buf]);
            (
                p.ctx.prof.cat_total_us(TimeCategory::P2P),
                p.ctx.prof.cat_total_us(TimeCategory::PageMigration),
            )
        });
        for (p2p, mig) in cats {
            assert_eq!(p2p, 0.0, "UM loses the CUDA-aware path");
            assert!(mig > 0.0, "UM halos page through the CPU");
        }
    }
}
