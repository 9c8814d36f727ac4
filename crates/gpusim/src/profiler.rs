//! Profiler: NSIGHT-Systems-style span recording on the virtual clock.
//!
//! Two layers of accounting:
//!
//! * **phase totals** — every time charge lands in the current [`Phase`]
//!   (`Compute`, `Mpi`, or `Setup`). The paper's Fig. 3 splits wall time
//!   into "MPI" (all MPI calls, buffer loading/unloading, waits) and the
//!   rest; the phase mechanism reproduces that split exactly.
//! * **spans** — optional detailed `(t0, t1, category, label)` records used
//!   to regenerate the Fig. 4 timeline (kernels, memcpys, P2P transfers,
//!   page migrations, waits). Disabled by default because production runs
//!   issue millions of kernels.

/// Broad wall-time bucket, following the paper's Fig. 3 definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Problem setup (excluded from the timed solve in the paper's runs).
    Setup,
    /// Physics kernels and everything else that is not MPI.
    Compute,
    /// MPI calls, halo buffer pack/unpack, transfers, waits.
    Mpi,
}

/// Fine-grained event category (Fig. 4 timeline colors).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimeCategory {
    /// GPU compute kernel execution.
    Kernel,
    /// Kernel launch overhead / gaps between kernels.
    LaunchGap,
    /// Host→device bulk copy.
    MemcpyH2D,
    /// Device→host bulk copy.
    MemcpyD2H,
    /// GPU peer-to-peer transfer (NVLink).
    P2P,
    /// Unified-memory page migration (either direction).
    PageMigration,
    /// Halo buffer pack/unpack kernels.
    Pack,
    /// Collective communication (allreduce etc.).
    Collective,
    /// Waiting on a message / load imbalance.
    MpiWait,
    /// Anything else.
    Other,
}

impl TimeCategory {
    /// All categories, for table iteration.
    pub const ALL: [TimeCategory; 10] = [
        TimeCategory::Kernel,
        TimeCategory::LaunchGap,
        TimeCategory::MemcpyH2D,
        TimeCategory::MemcpyD2H,
        TimeCategory::P2P,
        TimeCategory::PageMigration,
        TimeCategory::Pack,
        TimeCategory::Collective,
        TimeCategory::MpiWait,
        TimeCategory::Other,
    ];

    /// Stable index for total arrays.
    pub fn index(self) -> usize {
        match self {
            TimeCategory::Kernel => 0,
            TimeCategory::LaunchGap => 1,
            TimeCategory::MemcpyH2D => 2,
            TimeCategory::MemcpyD2H => 3,
            TimeCategory::P2P => 4,
            TimeCategory::PageMigration => 5,
            TimeCategory::Pack => 6,
            TimeCategory::Collective => 7,
            TimeCategory::MpiWait => 8,
            TimeCategory::Other => 9,
        }
    }

    /// Short label for timeline rendering.
    pub fn label(self) -> &'static str {
        match self {
            TimeCategory::Kernel => "KERNEL",
            TimeCategory::LaunchGap => "GAP",
            TimeCategory::MemcpyH2D => "H2D",
            TimeCategory::MemcpyD2H => "D2H",
            TimeCategory::P2P => "P2P",
            TimeCategory::PageMigration => "UM-PAGE",
            TimeCategory::Pack => "PACK",
            TimeCategory::Collective => "COLL",
            TimeCategory::MpiWait => "WAIT",
            TimeCategory::Other => "OTHER",
        }
    }
}

/// One recorded interval on the virtual timeline.
#[derive(Clone, Debug)]
pub struct Span {
    /// Start time, µs.
    pub t0: f64,
    /// End time, µs.
    pub t1: f64,
    /// Event category.
    pub cat: TimeCategory,
    /// Phase the event was charged to.
    pub phase: Phase,
    /// Kernel / transfer label.
    pub name: &'static str,
}

impl Span {
    /// Span duration, µs.
    pub fn dur(&self) -> f64 {
        self.t1 - self.t0
    }
}

/// Accumulates phase totals and (optionally) detailed spans for one rank.
#[derive(Clone, Debug, Default)]
pub struct Profiler {
    /// Total µs per phase: [setup, compute, mpi].
    phase_us: [f64; 3],
    /// Total µs per category.
    cat_us: [f64; 10],
    /// Detailed spans (only if `record_spans`).
    spans: Vec<Span>,
    /// Whether to keep spans.
    record_spans: bool,
    /// Number of kernel launches (for the census used in extrapolation).
    pub kernel_launches: u64,
    /// Total kernel bytes moved (model).
    pub kernel_bytes: f64,
    /// Host-engine tiles executed across all tiled kernel dispatches.
    /// A property of the iteration spaces, *not* of the worker count, so
    /// it is identical for every `MAS_HOST_THREADS` setting.
    pub host_tiles: u64,
}

fn phase_index(p: Phase) -> usize {
    match p {
        Phase::Setup => 0,
        Phase::Compute => 1,
        Phase::Mpi => 2,
    }
}

impl Profiler {
    /// New profiler; span recording off.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable/disable detailed span recording (Fig. 4 runs only).
    pub fn set_record_spans(&mut self, on: bool) {
        self.record_spans = on;
    }

    /// Record a charge of `dur` µs ending at time `t1`.
    pub fn record(&mut self, t1: f64, dur: f64, cat: TimeCategory, phase: Phase, name: &'static str) {
        self.phase_us[phase_index(phase)] += dur;
        self.cat_us[cat.index()] += dur;
        if self.record_spans && dur > 0.0 {
            self.spans.push(Span {
                t0: t1 - dur,
                t1,
                cat,
                phase,
                name,
            });
        }
    }

    /// Total µs charged to a phase.
    pub fn phase_total_us(&self, p: Phase) -> f64 {
        self.phase_us[phase_index(p)]
    }

    /// Total µs charged to a category.
    pub fn cat_total_us(&self, c: TimeCategory) -> f64 {
        self.cat_us[c.index()]
    }

    /// Timed wall total (compute + MPI; setup excluded, as in the paper).
    pub fn wall_us(&self) -> f64 {
        self.phase_total_us(Phase::Compute) + self.phase_total_us(Phase::Mpi)
    }

    /// Recorded spans (empty unless recording was enabled).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Record a host-engine tiled dispatch of `n_tiles` tiles.
    pub fn note_host_tiles(&mut self, n_tiles: u64) {
        self.host_tiles += n_tiles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_accumulate_by_phase_and_category() {
        let mut p = Profiler::new();
        p.record(10.0, 10.0, TimeCategory::Kernel, Phase::Compute, "k1");
        p.record(15.0, 5.0, TimeCategory::P2P, Phase::Mpi, "halo");
        p.record(18.0, 3.0, TimeCategory::MpiWait, Phase::Mpi, "wait");
        assert_eq!(p.phase_total_us(Phase::Compute), 10.0);
        assert_eq!(p.phase_total_us(Phase::Mpi), 8.0);
        assert_eq!(p.wall_us(), 18.0);
        assert_eq!(p.cat_total_us(TimeCategory::P2P), 5.0);
        assert!(p.spans().is_empty(), "spans off by default");
    }

    #[test]
    fn spans_recorded_when_enabled() {
        let mut p = Profiler::new();
        p.set_record_spans(true);
        p.record(10.0, 4.0, TimeCategory::Kernel, Phase::Compute, "k");
        assert_eq!(p.spans().len(), 1);
        let s = &p.spans()[0];
        assert_eq!(s.t0, 6.0);
        assert_eq!(s.dur(), 4.0);
    }

    #[test]
    fn zero_duration_spans_suppressed() {
        let mut p = Profiler::new();
        p.set_record_spans(true);
        p.record(10.0, 0.0, TimeCategory::Kernel, Phase::Compute, "k");
        assert!(p.spans().is_empty());
    }

    #[test]
    fn category_indices_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for c in TimeCategory::ALL {
            assert!(seen.insert(c.index()));
        }
    }
}
