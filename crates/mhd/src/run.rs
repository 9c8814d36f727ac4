//! High-level run entry points and reports — what the examples, tests and
//! the benchmark harness consume.

use crate::diag::HistRecord;
use crate::sim::Simulation;
use crate::supervisor::RecoveryLog;
use gpusim::{DeviceSpec, Phase, Span, TimeCategory};
use mas_config::Deck;
use stdpar::{CodeVersion, RaceAudit, SiteRegistry};

/// Result of one rank's run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Code version executed.
    pub version: CodeVersion,
    /// This rank's id.
    pub rank: usize,
    /// World size.
    pub n_ranks: usize,
    /// Steps taken.
    pub steps: usize,
    /// Model wall time (compute + MPI), µs.
    pub wall_us: f64,
    /// Model MPI-phase time, µs.
    pub mpi_us: f64,
    /// Model compute-phase time, µs.
    pub compute_us: f64,
    /// Kernel launches (the census used by the paper-scale extrapolation).
    pub kernel_launches: u64,
    /// Host-engine tiles dispatched (thread-count independent census).
    pub host_tiles: u64,
    /// Bitwise fingerprint of the final primary state
    /// ([`crate::state::State::content_hash`]): identical across thread
    /// counts and — given identical physics — across code versions.
    pub state_hash: u64,
    /// Model bytes moved by kernels.
    pub kernel_bytes: f64,
    /// Final global diagnostics history.
    pub hist: Vec<HistRecord>,
    /// Final physical time.
    pub time: f64,
    /// Site registry (feeds the directive audit).
    pub registry: SiteRegistry,
    /// Race-audit summary (iteration-independence contract checks; all
    /// zeros with `enabled: false` unless the run asked for audit mode
    /// via `par_audit` / `MAS_PAR_AUDIT=1`). Sits next to `host_tiles`
    /// so CI can assert every shipped kernel is contract-clean.
    pub race_audit: RaceAudit,
    /// Detailed profiler spans (only when span recording was requested).
    pub spans: Vec<Span>,
    /// Time per category, µs (Fig. 4 aggregation).
    pub cat_us: Vec<(&'static str, f64)>,
    /// What the fault-tolerant supervisor did (checkpoints, faults,
    /// detections, rollbacks); `supervised: false` for unsupervised runs.
    pub recovery: RecoveryLog,
    /// Learned tile plan per kernel site: `(site name, nk, tile_k)` for
    /// every site whose iteration space spans more than one k-plane.
    /// `tile_k` is the number of k-planes grouped per host-engine
    /// dispatch chunk, auto-tuned from (shape, thread count).
    pub tile_plans: Vec<(&'static str, usize, usize)>,
}

impl RunReport {
    /// Wall time in model seconds.
    pub fn wall_seconds(&self) -> f64 {
        self.wall_us / 1e6
    }

    /// MPI share of wall time.
    pub fn mpi_fraction(&self) -> f64 {
        if self.wall_us > 0.0 {
            self.mpi_us / self.wall_us
        } else {
            0.0
        }
    }
}

/// Multi-rank result: per-rank reports plus world-level helpers.
#[derive(Clone, Debug)]
pub struct MultiRankReport {
    /// Reports in rank order.
    pub ranks: Vec<RunReport>,
}

impl MultiRankReport {
    /// Wall time of the slowest rank (the run's wall clock), µs.
    pub fn wall_us(&self) -> f64 {
        self.ranks.iter().map(|r| r.wall_us).fold(0.0, f64::max)
    }

    /// Mean MPI time across ranks, µs.
    pub fn mean_mpi_us(&self) -> f64 {
        self.ranks.iter().map(|r| r.mpi_us).sum::<f64>() / self.ranks.len() as f64
    }

    /// Mean non-MPI time, µs.
    pub fn mean_compute_us(&self) -> f64 {
        self.ranks.iter().map(|r| r.compute_us).sum::<f64>() / self.ranks.len() as f64
    }

    /// World-total kernel launches.
    pub fn total_launches(&self) -> u64 {
        self.ranks.iter().map(|r| r.kernel_launches).sum()
    }

    /// The history from rank 0 (identical global reductions on all
    /// ranks); empty when there are no ranks or no records — a zero-step
    /// run is graceful, not a panic.
    pub fn hist(&self) -> &[HistRecord] {
        self.ranks.first().map_or(&[], |r| r.hist.as_slice())
    }
}

pub(crate) fn report_from(sim: Simulation, n_ranks: usize, recovery: RecoveryLog) -> RunReport {
    let prof = &sim.par.ctx.prof;
    let cat_us = TimeCategory::ALL
        .iter()
        .map(|&c| (c.label(), prof.cat_total_us(c)))
        .collect();
    RunReport {
        version: sim.par.version(),
        rank: sim.par.ctx.rank,
        n_ranks,
        steps: sim.step,
        wall_us: prof.wall_us(),
        mpi_us: prof.phase_total_us(Phase::Mpi),
        compute_us: prof.phase_total_us(Phase::Compute),
        kernel_launches: prof.kernel_launches,
        host_tiles: prof.host_tiles,
        state_hash: sim.state.content_hash(),
        kernel_bytes: prof.kernel_bytes,
        hist: sim.hist.clone(),
        time: sim.time,
        registry: sim.par.registry.clone(),
        race_audit: sim.par.race_audit().clone(),
        spans: prof.spans().to_vec(),
        cat_us,
        recovery,
        tile_plans: sim.par.tile_plans(),
    }
}

/// Run the deck on a single rank (one virtual A100) and return the report.
pub fn run_single_rank(deck: &Deck, version: CodeVersion) -> RunReport {
    run_multi_rank(deck, version, DeviceSpec::a100_40gb(), 1, 1, false)
        .ranks
        .pop()
        .expect("one rank")
}

/// Run the deck on `n_ranks` thread-ranks with the given device spec.
/// `seed` varies the launch-jitter stream (one seed = one "run" for the
/// min/max error bars); `record_spans` enables the Fig. 4 timeline.
///
/// This delegates to [`crate::supervisor::run_supervised`] — whose step
/// loop runs unsupervised for decks without checkpointing, restart,
/// respawns or an armed fault — and **panics** on an unrecoverable run.
/// Callers that want the structured [`crate::supervisor::RunError`]
/// instead should call `run_supervised` directly.
pub fn run_multi_rank(
    deck: &Deck,
    version: CodeVersion,
    spec: DeviceSpec,
    n_ranks: usize,
    seed: u64,
    record_spans: bool,
) -> MultiRankReport {
    crate::supervisor::run_supervised(deck, version, spec, n_ranks, seed, record_spans)
        .unwrap_or_else(|e| panic!("run failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_quickstart_report() {
        let deck = Deck::preset_quickstart();
        let r = run_single_rank(&deck, CodeVersion::A);
        assert_eq!(r.steps, deck.time.n_steps);
        assert!(r.wall_us > 0.0);
        assert!(r.mpi_us > 0.0, "even 1 rank packs/exchanges halos");
        assert!(r.kernel_launches > 100);
        assert!(r.registry.n_sites() > 30, "sites: {}", r.registry.n_sites());
    }

    #[test]
    fn two_ranks_match_one_rank_physics() {
        let mut deck = Deck::preset_quickstart();
        deck.output.hist_interval = deck.time.n_steps; // one record at the end
        let one = run_single_rank(&deck, CodeVersion::A);
        let two = run_multi_rank(&deck, CodeVersion::A, DeviceSpec::a100_40gb(), 2, 1, false);
        let d1 = one.hist.last().unwrap().diag;
        let d2 = two.hist().last().unwrap().diag;
        assert!(
            (d1.mass - d2.mass).abs() / d1.mass < 1e-11,
            "mass {} vs {}",
            d1.mass,
            d2.mass
        );
        assert!(
            (d1.etherm - d2.etherm).abs() / d1.etherm < 1e-11,
            "etherm {} vs {}",
            d1.etherm,
            d2.etherm
        );
    }

    #[test]
    fn zero_step_run_is_graceful() {
        // A deck with n_steps = 0 (e.g. a restart that already reached the
        // target step) produces an empty but well-formed report instead of
        // panicking on missing history.
        let mut deck = Deck::preset_quickstart();
        deck.time.n_steps = 0;
        let rep = run_multi_rank(&deck, CodeVersion::A, DeviceSpec::a100_40gb(), 2, 1, false);
        assert!(rep.hist().is_empty(), "no steps, no history");
        assert_eq!(rep.ranks.len(), 2);
        for r in &rep.ranks {
            assert_eq!(r.steps, 0);
            assert_eq!(r.time, 0.0);
            assert!(!r.recovery.supervised, "nothing to supervise");
        }
        // World-level helpers stay well-defined on the empty run.
        assert!(rep.wall_us() >= 0.0);
        assert!(MultiRankReport { ranks: vec![] }.hist().is_empty());
    }

    #[test]
    fn same_seed_reproduces_wall_time() {
        let deck = Deck::preset_quickstart();
        let a = run_multi_rank(&deck, CodeVersion::Ad, DeviceSpec::a100_40gb(), 2, 9, false);
        let b = run_multi_rank(&deck, CodeVersion::Ad, DeviceSpec::a100_40gb(), 2, 9, false);
        assert_eq!(a.wall_us(), b.wall_us());
        let c = run_multi_rank(&deck, CodeVersion::Ad, DeviceSpec::a100_40gb(), 2, 10, false);
        assert_ne!(a.wall_us(), c.wall_us(), "different seed jitters differently");
    }
}
