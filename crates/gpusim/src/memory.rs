//! Device memory manager: manual data movement vs unified managed memory.
//!
//! The paper's central performance finding is that replacing OpenACC's
//! manual data-management directives with NVIDIA's unified managed memory
//! (UM) costs 1.25–3× at scale, because
//!
//! * MPI halo exchanges lose the GPU peer-to-peer path and instead page
//!   buffers through the CPU (Fig. 4), and
//! * every kernel launch carries extra driver overhead for page-table
//!   bookkeeping ("larger gaps between kernel launches", §V-C).
//!
//! [`MemoryManager`] models both regimes at whole-buffer granularity with
//! page-count-aware migration costs. The *contents* of arrays always live
//! in ordinary host memory (the physics is computed for real); the manager
//! only tracks model residency and produces time charges.

use crate::profiler::TimeCategory;
use crate::spec::DeviceSpec;

/// Opaque handle to a registered (model) device buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct BufferId(pub u32);

/// Data-management regime of a code version.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataMode {
    /// OpenACC-style manual movement (`enter/exit/update` directives).
    Manual,
    /// NVIDIA unified managed memory (`-gpu=managed`): demand paging.
    Unified,
}

/// Where the up-to-date copy of a buffer currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residency {
    /// Only the host copy is current (initial state).
    Host,
    /// Only the device copy is current.
    Device,
    /// Both copies are current.
    Synced,
}

/// A single cost produced by a memory operation.
#[derive(Clone, Copy, Debug)]
pub struct Charge {
    /// Duration, µs.
    pub us: f64,
    /// Category for the profiler.
    pub cat: TimeCategory,
    /// Label.
    pub name: &'static str,
}

#[derive(Clone, Debug)]
struct BufferInfo {
    bytes: usize,
    residency: Residency,
    /// Debug label (kept for error messages and leak reports).
    label: &'static str,
}

/// Tracks model residency for every registered buffer and converts
/// memory-model events into time charges.
#[derive(Clone, Debug)]
pub struct MemoryManager {
    mode: DataMode,
    spec: DeviceSpec,
    buffers: Vec<BufferInfo>,
    /// Total bytes currently registered (device-memory pressure).
    total_bytes: usize,
    /// Cumulative bytes migrated by the UM pager (diagnostics).
    pub um_migrated_bytes: f64,
    /// Cumulative explicit-copy bytes (diagnostics).
    pub copied_bytes: f64,
}

impl MemoryManager {
    /// New manager for a device in the given data mode.
    pub fn new(spec: DeviceSpec, mode: DataMode) -> Self {
        Self {
            mode,
            spec,
            buffers: Vec::new(),
            total_bytes: 0,
            um_migrated_bytes: 0.0,
            copied_bytes: 0.0,
        }
    }

    /// Data-management regime.
    pub fn mode(&self) -> DataMode {
        self.mode
    }

    /// Register a buffer of `bytes`; starts host-resident.
    pub fn register(&mut self, bytes: usize, label: &'static str) -> BufferId {
        let id = BufferId(self.buffers.len() as u32);
        self.buffers.push(BufferInfo {
            bytes,
            residency: Residency::Host,
            label,
        });
        self.total_bytes += bytes;
        id
    }

    /// Total registered bytes (for the 40 GB capacity check).
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Residency of a buffer.
    pub fn residency(&self, id: BufferId) -> Residency {
        self.buffers[id.0 as usize].residency
    }

    /// `!$acc enter data copyin(...)` — manual mode only; UM ignores it
    /// (exactly as running Code 2 with `-gpu=managed` ignores the data
    /// directives, paper §IV-C).
    pub fn enter_data(&mut self, id: BufferId, out: &mut Vec<Charge>) {
        if self.mode != DataMode::Manual {
            return;
        }
        let b = &mut self.buffers[id.0 as usize];
        if b.residency == Residency::Host {
            let us = self.spec.copy_time_us(b.bytes as f64);
            self.copied_bytes += b.bytes as f64;
            b.residency = Residency::Synced;
            out.push(Charge {
                us,
                cat: TimeCategory::MemcpyH2D,
                name: "enter_data",
            });
        }
    }

    /// `!$acc update device(...)`.
    pub fn update_device(&mut self, id: BufferId, out: &mut Vec<Charge>) {
        if self.mode != DataMode::Manual {
            return;
        }
        let b = &mut self.buffers[id.0 as usize];
        if b.residency == Residency::Host || b.residency == Residency::Synced {
            let us = self.spec.copy_time_us(b.bytes as f64);
            self.copied_bytes += b.bytes as f64;
            b.residency = Residency::Synced;
            out.push(Charge {
                us,
                cat: TimeCategory::MemcpyH2D,
                name: "update_device",
            });
        }
    }

    /// `!$acc update host(...)`.
    pub fn update_host(&mut self, id: BufferId, out: &mut Vec<Charge>) {
        if self.mode != DataMode::Manual {
            return;
        }
        let b = &mut self.buffers[id.0 as usize];
        if b.residency == Residency::Device {
            let us = self.spec.copy_time_us(b.bytes as f64);
            self.copied_bytes += b.bytes as f64;
            b.residency = Residency::Synced;
            out.push(Charge {
                us,
                cat: TimeCategory::MemcpyD2H,
                name: "update_host",
            });
        }
    }

    /// A device kernel is about to read `reads` and write `writes`.
    ///
    /// * Manual mode: data must already be resident (OpenACC
    ///   `default(present)` semantics) — enforced with a panic, which is
    ///   the model analogue of the runtime "data not present" abort.
    /// * Unified mode: host-resident buffers fault in (page migration
    ///   charges); all touched buffers end device-resident, written ones
    ///   device-only.
    pub fn device_access(
        &mut self,
        reads: &[BufferId],
        writes: &[BufferId],
        out: &mut Vec<Charge>,
    ) {
        match self.mode {
            DataMode::Manual => {
                for &id in reads.iter().chain(writes) {
                    let b = &self.buffers[id.0 as usize];
                    assert!(
                        b.residency != Residency::Host,
                        "FATAL (model): buffer '{}' not present on device \
                         in manual data mode (missing enter_data/update_device)",
                        b.label
                    );
                }
                for &id in writes {
                    self.buffers[id.0 as usize].residency = Residency::Device;
                }
            }
            DataMode::Unified => {
                for &id in reads.iter().chain(writes) {
                    let b = &mut self.buffers[id.0 as usize];
                    if b.residency == Residency::Host {
                        let us = self.spec.um_migration_time_us(b.bytes as f64);
                        self.um_migrated_bytes += b.bytes as f64;
                        b.residency = Residency::Device;
                        out.push(Charge {
                            us,
                            cat: TimeCategory::PageMigration,
                            name: "um_fault_h2d",
                        });
                    }
                }
                for &id in writes {
                    self.buffers[id.0 as usize].residency = Residency::Device;
                }
            }
        }
    }

    /// Host code (MPI library staging, I/O, setup loops) is about to read
    /// and/or write a buffer.
    ///
    /// * Manual mode: reading device-only data from the host is a
    ///   correctness bug in the ported code, so it panics (the real code
    ///   would silently read stale data). Call `update_host` first. Host
    ///   writes invalidate the device copy.
    /// * Unified mode: device-resident pages migrate back (D2H charges);
    ///   host writes leave the buffer host-resident.
    pub fn host_access(
        &mut self,
        id: BufferId,
        write: bool,
        out: &mut Vec<Charge>,
    ) {
        match self.mode {
            DataMode::Manual => {
                let b = &mut self.buffers[id.0 as usize];
                assert!(
                    b.residency != Residency::Device,
                    "FATAL (model): host access to device-only buffer '{}' \
                     in manual data mode (missing update_host)",
                    b.label
                );
                if write {
                    b.residency = Residency::Host;
                }
            }
            DataMode::Unified => {
                let b = &mut self.buffers[id.0 as usize];
                if b.residency == Residency::Device {
                    let us = self.spec.um_migration_time_us(b.bytes as f64);
                    self.um_migrated_bytes += b.bytes as f64;
                    b.residency = if write { Residency::Host } else { Residency::Synced };
                    out.push(Charge {
                        us,
                        cat: TimeCategory::PageMigration,
                        name: "um_fault_d2h",
                    });
                } else if write {
                    b.residency = Residency::Host;
                }
            }
        }
    }

    /// Pre-fault every host-resident buffer onto the device (unified
    /// memory only). Used at the end of problem setup: in a production
    /// run the one-time first-touch migration is a negligible fraction of
    /// hours of wall time, so the model performs it in the (untimed)
    /// setup phase rather than letting it distort a short benchmark run.
    pub fn prefault_all(&mut self, out: &mut Vec<Charge>) {
        if self.mode != DataMode::Unified {
            return;
        }
        for b in &mut self.buffers {
            if b.residency == Residency::Host {
                let us = self.spec.um_migration_time_us(b.bytes as f64);
                self.um_migrated_bytes += b.bytes as f64;
                b.residency = Residency::Device;
                out.push(Charge {
                    us,
                    cat: TimeCategory::PageMigration,
                    name: "um_prefault",
                });
            }
        }
    }

    /// Force a buffer's residency — used by the communication layer to
    /// model where network data lands: CUDA-aware MPI writes receive
    /// buffers directly on the device, while a host-staged (UM) transfer
    /// leaves them in host memory.
    pub fn set_residency(&mut self, id: BufferId, r: Residency) {
        self.buffers[id.0 as usize].residency = r;
    }

    /// Whether a send buffer can use the GPU peer-to-peer path: requires
    /// manual data management (CUDA-aware MPI with device pointers). Under
    /// UM the MPI library touches pages from the host (Fig. 4, bottom).
    pub fn p2p_eligible(&self) -> bool {
        self.mode == DataMode::Manual
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr(mode: DataMode) -> MemoryManager {
        MemoryManager::new(DeviceSpec::a100_40gb(), mode)
    }

    #[test]
    fn manual_enter_data_charges_once() {
        let mut m = mgr(DataMode::Manual);
        let b = m.register(1 << 20, "rho");
        let mut out = vec![];
        m.enter_data(b, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cat, TimeCategory::MemcpyH2D);
        out.clear();
        m.enter_data(b, &mut out); // already resident
        assert!(out.is_empty());
        assert_eq!(m.residency(b), Residency::Synced);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn manual_kernel_requires_present_data() {
        let mut m = mgr(DataMode::Manual);
        let b = m.register(8, "x");
        let mut out = vec![];
        m.device_access(&[b], &[], &mut out);
    }

    #[test]
    fn manual_write_then_host_read_needs_update() {
        let mut m = mgr(DataMode::Manual);
        let b = m.register(1 << 20, "v");
        let mut out = vec![];
        m.enter_data(b, &mut out);
        m.device_access(&[], &[b], &mut out); // kernel writes => device-only
        assert_eq!(m.residency(b), Residency::Device);
        out.clear();
        m.update_host(b, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cat, TimeCategory::MemcpyD2H);
        m.host_access(b, false, &mut out); // now fine
    }

    #[test]
    fn unified_ignores_data_directives() {
        let mut m = mgr(DataMode::Unified);
        let b = m.register(1 << 20, "t");
        let mut out = vec![];
        m.enter_data(b, &mut out);
        m.update_device(b, &mut out);
        m.update_host(b, &mut out);
        assert!(out.is_empty(), "UM ignores manual directives");
    }

    #[test]
    fn unified_faults_in_on_first_kernel_touch_only() {
        let mut m = mgr(DataMode::Unified);
        let b = m.register(4 << 20, "b");
        let mut out = vec![];
        m.device_access(&[b], &[], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cat, TimeCategory::PageMigration);
        out.clear();
        m.device_access(&[b], &[b], &mut out);
        assert!(out.is_empty(), "already device-resident");
    }

    #[test]
    fn unified_ping_pong_charges_both_directions() {
        let mut m = mgr(DataMode::Unified);
        let b = m.register(4 << 20, "halo");
        let mut out = vec![];
        m.device_access(&[], &[b], &mut out); // GPU pack writes
        out.clear();
        m.host_access(b, true, &mut out); // MPI touches from host
        assert_eq!(out.len(), 1);
        out.clear();
        m.device_access(&[b], &[], &mut out); // GPU unpack reads
        assert_eq!(out.len(), 1, "pages must fault back to the device");
        assert!(m.um_migrated_bytes >= 3.0 * (4 << 20) as f64);
    }

    #[test]
    fn p2p_only_with_manual_memory() {
        assert!(mgr(DataMode::Manual).p2p_eligible());
        assert!(!mgr(DataMode::Unified).p2p_eligible());
    }

    #[test]
    fn host_read_under_um_keeps_pages_synced() {
        let mut m = mgr(DataMode::Unified);
        let b = m.register(1 << 20, "diag");
        let mut out = vec![];
        m.device_access(&[], &[b], &mut out);
        out.clear();
        m.host_access(b, false, &mut out);
        assert_eq!(m.residency(b), Residency::Synced);
        out.clear();
        // A device read after a host *read* must not migrate again.
        m.device_access(&[b], &[], &mut out);
        assert!(out.is_empty());
    }
}
