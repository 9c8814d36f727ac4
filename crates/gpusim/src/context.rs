//! The device context: one virtual accelerator attached to one rank.
//!
//! [`DeviceContext`] glues together the clock, the memory manager and the
//! profiler, and implements the launch-cost policy:
//!
//! * **sync launches** pay the full launch overhead per kernel — this is
//!   what `do concurrent` gets (kernel fission, no `async`);
//! * **async launches** pay only the small pipelined overhead — OpenACC
//!   `async` queues;
//! * **fused regions** pay one overhead for a whole group of loops — an
//!   OpenACC `parallel` region containing several independent loops
//!   compiles to a single kernel (paper §IV-B);
//! * running under **unified memory** adds per-launch driver overhead on
//!   top of either mode.

use crate::clock::VirtualClock;
use crate::memory::{BufferId, Charge, DataMode, MemoryManager};
use crate::profiler::{Phase, Profiler, TimeCategory};
use crate::spec::{DeviceSpec, Traffic};

/// How a kernel launch is issued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaunchMode {
    /// Synchronous launch: full overhead, CPU waits (DC semantics).
    Sync,
    /// Asynchronous queue: overhead pipelined behind execution (OpenACC
    /// `async` semantics).
    Async,
}

/// One rank's virtual device (or CPU node).
#[derive(Clone, Debug)]
pub struct DeviceContext {
    /// Hardware constants.
    pub spec: DeviceSpec,
    /// Virtual time.
    pub clock: VirtualClock,
    /// Residency tracking and memory-event costs.
    pub mem: MemoryManager,
    /// Time accounting.
    pub prof: Profiler,
    /// This rank's id (label only).
    pub rank: usize,
    phase: Phase,
    launch_mode: LaunchMode,
    /// Nesting depth of fused regions (0 = not in a region).
    region_depth: u32,
    /// Whether the current region has paid its single launch overhead.
    region_overhead_paid: bool,
    /// Execution-efficiency factor (≤ 1) applied to kernel time — the
    /// programming-model layer uses it for the compiler's less-tuned
    /// `do concurrent` offload parameters (paper §V-C).
    exec_derate: f64,
    /// xorshift64* state for launch jitter (deterministic per seed).
    rng: u64,
    /// Scratch for memory charges (avoids per-launch allocation).
    scratch: Vec<Charge>,
}

impl DeviceContext {
    /// New context. `seed` controls the run-to-run jitter stream; the same
    /// seed reproduces identical timings.
    pub fn new(spec: DeviceSpec, mode: DataMode, rank: usize, seed: u64) -> Self {
        let mem = MemoryManager::new(spec.clone(), mode);
        Self {
            spec,
            clock: VirtualClock::new(),
            mem,
            prof: Profiler::new(),
            rank,
            phase: Phase::Setup,
            launch_mode: LaunchMode::Sync,
            region_depth: 0,
            region_overhead_paid: false,
            exec_derate: 1.0,
            rng: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
            scratch: Vec::with_capacity(8),
        }
    }

    /// Current accounting phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Switch accounting phase; returns the previous one so callers can
    /// restore it (`Mpi` sections are nested inside `Compute`).
    pub fn set_phase(&mut self, p: Phase) -> Phase {
        std::mem::replace(&mut self.phase, p)
    }

    /// Current launch mode.
    pub fn launch_mode(&self) -> LaunchMode {
        self.launch_mode
    }

    /// Set the launch mode (per code-version policy).
    pub fn set_launch_mode(&mut self, m: LaunchMode) {
        self.launch_mode = m;
    }

    /// Set the kernel execution-efficiency factor (0 < f ≤ 1).
    pub fn set_exec_derate(&mut self, f: f64) {
        assert!(f > 0.0 && f <= 1.0, "bad exec derate {f}");
        self.exec_derate = f;
    }

    /// Enter a fused kernel region (OpenACC `parallel` with several loops).
    /// Regions may not nest in OpenACC; the model tolerates nesting by
    /// treating inner regions as part of the outer one.
    pub fn begin_region(&mut self) {
        if self.region_depth == 0 {
            self.region_overhead_paid = false;
        }
        self.region_depth += 1;
    }

    /// Leave a fused region.
    pub fn end_region(&mut self) {
        assert!(self.region_depth > 0, "end_region without begin_region");
        self.region_depth -= 1;
    }

    /// Whether kernel launches are currently being fused.
    pub fn in_region(&self) -> bool {
        self.region_depth > 0
    }

    /// Deterministic multiplicative jitter around 1.0 (log-uniform within
    /// ±2σ), modeling run-to-run launch variation.
    fn jitter(&mut self) -> f64 {
        if self.spec.jitter_sigma == 0.0 {
            return 1.0;
        }
        // xorshift64*
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        let u = (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64;
        1.0 + self.spec.jitter_sigma * 2.0 * (u - 0.5)
    }

    /// Charge raw time to the clock + profiler.
    pub fn charge(&mut self, us: f64, cat: TimeCategory, name: &'static str) {
        let t1 = self.clock.advance(us);
        self.prof.record(t1, us, cat, self.phase, name);
    }

    /// Drain memory-manager charges into the profiler.
    fn apply_mem_charges(&mut self) {
        // `scratch` is drained here; split borrow via take to appease the
        // borrow checker without allocating.
        let mut charges = std::mem::take(&mut self.scratch);
        for c in charges.drain(..) {
            self.charge(c.us, c.cat, c.name);
        }
        self.scratch = charges;
    }

    /// Launch a kernel over `n_points` with per-point `traffic`, reading
    /// `reads` and writing `writes`. Returns the modeled execution time
    /// (µs) excluding overheads, which reduction drivers use for nested
    /// accounting.
    pub fn launch(
        &mut self,
        name: &'static str,
        n_points: usize,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
    ) -> f64 {
        // 1. Memory-model events (UM faults / presence checks).
        self.mem.device_access(reads, writes, &mut self.scratch);
        self.apply_mem_charges();

        // 2. Launch overhead.
        let fused_skip = self.in_region() && self.region_overhead_paid;
        if self.in_region() {
            self.region_overhead_paid = true;
        }
        let mut overhead = if fused_skip {
            0.0
        } else {
            match self.launch_mode {
                LaunchMode::Sync => self.spec.launch_overhead_us,
                LaunchMode::Async => self.spec.async_overhead_us,
            }
        };
        if self.mem.mode() == DataMode::Unified {
            overhead += self.spec.um_launch_extra_us;
        }
        if overhead > 0.0 {
            let j = self.jitter();
            self.charge(overhead * j, TimeCategory::LaunchGap, name);
        }

        // 3. Execution.
        let bytes = traffic.bytes(n_points);
        let flops = traffic.total_flops(n_points);
        let resident = self.mem.total_bytes() as f64;
        let mut exec = self.spec.exec_time_us(bytes, flops, resident);
        if self.mem.mode() == DataMode::Unified {
            exec /= self.spec.um_bw_derate;
        }
        exec /= self.exec_derate;
        self.charge(exec, TimeCategory::Kernel, name);
        self.prof.kernel_launches += 1;
        self.prof.kernel_bytes += bytes;
        exec
    }

    /// Pre-fault all UM buffers onto the device (setup phase).
    pub fn prefault_all(&mut self) {
        self.mem.prefault_all(&mut self.scratch);
        self.apply_mem_charges();
    }

    /// Host-side touch of a buffer (MPI staging, I/O, setup); charges UM
    /// migrations or enforces manual-mode presence rules.
    pub fn host_touch(&mut self, id: BufferId, write: bool) {
        self.mem.host_access(id, write, &mut self.scratch);
        self.apply_mem_charges();
    }

    /// `!$acc enter data copyin` wrapper.
    pub fn enter_data(&mut self, id: BufferId) {
        self.mem.enter_data(id, &mut self.scratch);
        self.apply_mem_charges();
    }

    /// `!$acc update device` wrapper.
    pub fn update_device(&mut self, id: BufferId) {
        self.mem.update_device(id, &mut self.scratch);
        self.apply_mem_charges();
    }

    /// `!$acc update host` wrapper.
    pub fn update_host(&mut self, id: BufferId) {
        self.mem.update_host(id, &mut self.scratch);
        self.apply_mem_charges();
    }

    /// Model wall time so far, µs (compute + MPI phases).
    pub fn wall_us(&self) -> f64 {
        self.prof.wall_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(mode: DataMode) -> DeviceContext {
        let mut c = DeviceContext::new(DeviceSpec::a100_40gb(), mode, 0, 42);
        c.spec.jitter_sigma = 0.0; // exact arithmetic in tests
        c.set_phase(Phase::Compute);
        c
    }

    #[test]
    fn sync_launch_pays_overhead_plus_exec() {
        let mut c = ctx(DataMode::Manual);
        let b = c.mem.register(800, "x");
        c.enter_data(b);
        let t0 = c.clock.now_us();
        c.launch("k", 100, Traffic::new(1, 0, 0), &[b], &[]);
        let dt = c.clock.now_us() - t0;
        let exec = 800.0 / (c.spec.mem_bw_gbs * 1e3);
        let oh = c.spec.launch_overhead_us;
        assert!((dt - (oh + exec)).abs() < 1e-6, "dt={dt}");
    }

    #[test]
    fn async_launch_overhead_is_small() {
        let mut c = ctx(DataMode::Manual);
        let b = c.mem.register(800, "x");
        c.enter_data(b);
        c.set_launch_mode(LaunchMode::Async);
        let t0 = c.clock.now_us();
        c.launch("k", 100, Traffic::new(1, 0, 0), &[b], &[]);
        let dt = c.clock.now_us() - t0;
        assert!(dt < c.spec.launch_overhead_us, "async must beat the sync overhead alone");
    }

    #[test]
    fn fused_region_pays_one_overhead() {
        let mut c = ctx(DataMode::Manual);
        let b = c.mem.register(800, "x");
        c.enter_data(b);
        let t0 = c.clock.now_us();
        c.begin_region();
        for _ in 0..5 {
            c.launch("k", 100, Traffic::new(1, 0, 0), &[b], &[]);
        }
        c.end_region();
        let fused = c.clock.now_us() - t0;

        let t1 = c.clock.now_us();
        for _ in 0..5 {
            c.launch("k", 100, Traffic::new(1, 0, 0), &[b], &[]);
        }
        let fissioned = c.clock.now_us() - t1;
        let oh = c.spec.launch_overhead_us;
        assert!(
            (fissioned - fused - 4.0 * oh).abs() < 1e-6,
            "fission should cost exactly 4 extra overheads ({fused} vs {fissioned})"
        );
    }

    #[test]
    fn um_adds_per_launch_overhead() {
        let mut cm = ctx(DataMode::Manual);
        let mut cu = ctx(DataMode::Unified);
        let bm = cm.mem.register(800, "x");
        cm.enter_data(bm);
        let bu = cu.mem.register(800, "x");
        // warm UM pages so the comparison isolates launch overhead
        cu.launch("warm", 100, Traffic::new(1, 0, 0), &[bu], &[]);
        let t0m = cm.clock.now_us();
        cm.launch("k", 100, Traffic::new(1, 0, 0), &[bm], &[]);
        let dm = cm.clock.now_us() - t0m;
        let t0u = cu.clock.now_us();
        cu.launch("k", 100, Traffic::new(1, 0, 0), &[bu], &[]);
        let du = cu.clock.now_us() - t0u;
        // 2.8 µs launch extra plus a sliver of bandwidth derate on the
        // (tiny) kernel body.
        assert!((du - dm - 2.8).abs() < 1e-3, "UM extra = {}", du - dm);
    }

    #[test]
    fn phase_accounting_splits_mpi() {
        let mut c = ctx(DataMode::Manual);
        c.charge(10.0, TimeCategory::Kernel, "a");
        let prev = c.set_phase(Phase::Mpi);
        c.charge(4.0, TimeCategory::MpiWait, "w");
        c.set_phase(prev);
        assert_eq!(c.prof.phase_total_us(Phase::Compute), 10.0);
        assert_eq!(c.prof.phase_total_us(Phase::Mpi), 4.0);
        assert_eq!(c.wall_us(), 14.0);
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut c = DeviceContext::new(DeviceSpec::a100_40gb(), DataMode::Manual, 0, seed);
            c.set_phase(Phase::Compute);
            let b = c.mem.register(8, "x");
            c.enter_data(b);
            for _ in 0..10 {
                c.launch("k", 1, Traffic::new(1, 0, 0), &[b], &[]);
            }
            c.clock.now_us()
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn kernel_census_counts() {
        let mut c = ctx(DataMode::Manual);
        let b = c.mem.register(8000, "x");
        c.enter_data(b);
        c.launch("k", 100, Traffic::new(2, 1, 3), &[b], &[b]);
        assert_eq!(c.prof.kernel_launches, 1);
        assert_eq!(c.prof.kernel_bytes, 2400.0);
    }
}
