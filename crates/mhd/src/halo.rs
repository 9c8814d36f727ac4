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
use minimpi::{scaled_ms, Comm, NetPath, RecvFailure, ReduceOp};
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

/// Tag offset of a verdict (ACK/NACK) message relative to its data tag:
/// the verdict for a `TAG_DOWN` payload travels as `TAG_DOWN + VERDICT_OFF`.
const VERDICT_OFF: u32 = 4;

/// Retry attempt number encoded in the tag's high bits, so a resent plane
/// can never be mistaken for an earlier attempt's straggler.
const ATTEMPT_SHIFT: u32 = 8;

/// Base receive deadline of the verified transport's first attempt; each
/// retry doubles it (bounded exponential backoff).
fn retry_base_deadline() -> std::time::Duration {
    scaled_ms(40)
}

/// Reusable halo machinery for one fixed set of arrays.
pub struct HaloExchanger {
    halo: PhiHalo,
    /// Staging-buffer ids: [send_low, send_high, recv_low, recv_high].
    bufs: [BufferId; 4],
    /// Paper-scale factor for this exchange's costs (plane ⇒ area scale).
    cost_scale: f64,
    /// Transport retry budget per receive: 0 keeps the unverified fast
    /// path (`send_pooled` / `recv_shared`); > 0 switches to the
    /// verified ACK/NACK transport that re-requests dropped or corrupted
    /// planes up to this many times before declaring the exchange failed.
    retries: u32,
    /// Resend requests (NACKs) this exchanger has issued.
    retry_count: u64,
    /// Sticky: an exchange exhausted its retry budget; cleared by
    /// [`HaloExchanger::take_failed`].
    failed: bool,
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
            retries: 0,
            retry_count: 0,
            failed: false,
            bufid_cache: Vec::new(),
        }
    }

    /// Set the transport retry budget (capped at 16 so attempt numbers
    /// stay well inside the tag's high bits). 0 restores the unverified
    /// fast path.
    pub fn set_retries(&mut self, retries: u32) {
        self.retries = retries.min(16);
    }

    /// Resend requests (NACKs) issued by this exchanger so far.
    pub fn retries_used(&self) -> u64 {
        self.retry_count
    }

    /// True when some exchange exhausted its retry budget since the last
    /// call; reading clears the flag. The caller is expected to fold this
    /// into its collective health check and roll back.
    pub fn take_failed(&mut self) -> bool {
        std::mem::take(&mut self.failed)
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
        if self.retries == 0 {
            // Zero-copy: the packed planes go on the wire as `Arc` clones;
            // the receiver copies out of the shared buffer and drops it,
            // releasing the sender's slot for the next pack. My high ghost
            // comes from the high neighbour's low plane (its
            // DOWN-travelling message); my low ghost from the low
            // neighbour's high plane (UP-travelling). DOWN is received
            // first to match the senders' FIFO order when lo == hi.
            comm.send_pooled(lo, TAG_DOWN, Arc::clone(&self.halo.send_low), path, &par.ctx, wire_bytes);
            comm.send_pooled(hi, TAG_UP, Arc::clone(&self.halo.send_high), path, &par.ctx, wire_bytes);
            let rh = comm.recv_shared(hi, TAG_DOWN, &mut par.ctx);
            let rl = comm.recv_shared(lo, TAG_UP, &mut par.ctx);
            self.halo.recv_low.copy_from_slice(&rl);
            self.halo.recv_high.copy_from_slice(&rh);
        } else {
            self.exchange_verified(par, comm, lo, hi, path, wire_bytes);
        }

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

    /// The verified ACK/NACK transport: every data plane is received with
    /// a deadline and CRC check; a lost or corrupted plane is NACKed and
    /// resent with the attempt number encoded in the tag's high bits, up
    /// to the retry budget with exponential backoff. Rounds run in
    /// lockstep across all ranks (barrier between the data and verdict
    /// phases, allreduce continue-flag at the end), so verdicts can never
    /// race a peer's data receive in the per-pair FIFO and no rank exits
    /// while another still needs its resends. A receive that exhausts the
    /// budget sets the sticky failure flag — the caller folds it into its
    /// collective health check and rolls back.
    fn exchange_verified(
        &mut self,
        par: &mut Par,
        comm: &Comm,
        lo: usize,
        hi: usize,
        path: NetPath,
        wire_bytes: f64,
    ) {
        let base_deadline = retry_base_deadline();
        // Generous control-plane deadline: verdicts ride the reliable
        // channel, so missing one means a hung peer (a dead or returned
        // one fails the wait at once), not a lost packet.
        let ctl_deadline = base_deadline * 32;
        // Directed channels, DOWN before UP everywhere (per-pair FIFO):
        // out[0] my low plane → lo (DOWN), out[1] my high plane → hi (UP);
        // in[0] hi's low plane (DOWN) → recv_high, in[1] lo's high plane
        // (UP) → recv_low.
        let mut out_pending = [true, true];
        let mut in_pending = [true, true];
        for attempt in 0..=self.retries {
            let shift = attempt << ATTEMPT_SHIFT;
            // Resends reuse the SAME pooled buffer across attempts — the
            // attempt number lives in the tag, not in a per-attempt clone.
            // An injected Corrupt fault garbles the in-flight copy only
            // (`Arc::make_mut` in the send path), so the retry naturally
            // resends the pristine plane.
            if out_pending[0] {
                comm.send_pooled(lo, TAG_DOWN | shift, Arc::clone(&self.halo.send_low), path, &par.ctx, wire_bytes);
            }
            if out_pending[1] {
                comm.send_pooled(hi, TAG_UP | shift, Arc::clone(&self.halo.send_high), path, &par.ctx, wire_bytes);
            }
            let deadline = base_deadline * (1u32 << attempt.min(5));
            let mut verdict = [None, None];
            // Receive grouped by source: when lo == hi (two ranks) both
            // planes share one FIFO and arrive in ANY order once a
            // message is lost (the follower lands in the dropped one's
            // place) — so accept whatever comes and match it by tag.
            let chans = [(hi, TAG_DOWN), (lo, TAG_UP)]; // idx 0 → recv_high, 1 → recv_low
            let mut srcs: Vec<usize> = Vec::new();
            for (idx, (src, _)) in chans.into_iter().enumerate() {
                if in_pending[idx] && !srcs.contains(&src) {
                    srcs.push(src);
                }
            }
            const MASK: u32 = (1 << ATTEMPT_SHIFT) - 1;
            for src in srcs {
                loop {
                    // Planes still outstanding from this source this round.
                    let want: Vec<(usize, u32)> = chans
                        .iter()
                        .enumerate()
                        .filter(|&(idx, &(s, _))| {
                            in_pending[idx] && verdict[idx].is_none() && s == src
                        })
                        .map(|(idx, &(_, base))| (idx, base | shift))
                        .collect();
                    if want.is_empty() {
                        break;
                    }
                    let tags: Vec<u32> = want.iter().map(|&(_, t)| t).collect();
                    match comm.try_recv_any_shared(src, &tags, &mut par.ctx, deadline) {
                        Ok((tag, d)) => {
                            let idx = want.iter().find(|&&(_, t)| t == tag).unwrap().0;
                            if idx == 0 {
                                self.halo.recv_high.copy_from_slice(&d);
                            } else {
                                self.halo.recv_low.copy_from_slice(&d);
                            }
                            in_pending[idx] = false;
                            verdict[idx] = Some(true);
                        }
                        // Straggler resend from an earlier attempt (it was
                        // consumed) or a dead epoch: keep waiting for the
                        // fresh copy.
                        Err(RecvFailure::TagMismatch { got, .. })
                            if want.iter().any(|&(_, t)| got & MASK == t & MASK)
                                && got >> ATTEMPT_SHIFT < attempt =>
                        {
                            continue
                        }
                        Err(RecvFailure::StaleEpoch { .. }) => continue,
                        Err(RecvFailure::Corrupt { tag, .. }) => {
                            // The CRC failure names its tag: NACK that
                            // plane, keep receiving any other one.
                            if let Some(&(idx, _)) = want.iter().find(|&&(_, t)| t == tag) {
                                self.retry_count += 1;
                                verdict[idx] = Some(false);
                            }
                        }
                        Err(RecvFailure::Timeout { .. }) => {
                            // Nothing more coming this round: NACK every
                            // plane still outstanding from this source.
                            for &(idx, _) in &want {
                                self.retry_count += 1;
                                verdict[idx] = Some(false);
                            }
                        }
                        Err(failure) => comm.fail(failure),
                    }
                }
            }
            // Quiesce the data plane before verdicts flow: after this
            // barrier no rank is still blocked in a data receive, so a
            // verdict can never be consumed as a mismatched data message.
            comm.barrier(&mut par.ctx);
            for (idx, (src, base)) in [(hi, TAG_DOWN), (lo, TAG_UP)].into_iter().enumerate() {
                if let Some(ok) = verdict[idx] {
                    let v = vec![if ok { 1.0 } else { 0.0 }];
                    comm.send_ctl(src, (base + VERDICT_OFF) | shift, v, &par.ctx);
                }
            }
            for (idx, (dst, base)) in [(lo, TAG_DOWN), (hi, TAG_UP)].into_iter().enumerate() {
                if !out_pending[idx] {
                    continue;
                }
                let tag = (base + VERDICT_OFF) | shift;
                let v = loop {
                    match comm.try_recv_any_shared(dst, &[tag], &mut par.ctx, ctl_deadline) {
                        Ok((_, d)) => break d,
                        // A late data plane we already NACKed (real-time
                        // skew) or a stale straggler: discard.
                        Err(RecvFailure::TagMismatch { .. }) | Err(RecvFailure::StaleEpoch { .. }) => {
                            continue
                        }
                        Err(failure) => comm.fail(failure),
                    }
                };
                if v.first().copied() == Some(1.0) {
                    out_pending[idx] = false;
                }
            }
            // Lockstep rounds: keep going while ANY rank has pending work.
            let pending = in_pending.iter().chain(&out_pending).any(|&p| p);
            let mut flag = [if pending { 1.0 } else { 0.0 }];
            comm.allreduce(ReduceOp::Max, &mut flag, &mut par.ctx);
            if flag[0] == 0.0 {
                break;
            }
        }
        if in_pending.iter().any(|&p| p) {
            self.failed = true;
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
