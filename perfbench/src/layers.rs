//! Layer probes shared by every traced run: halo and collective
//! transport, checkpoint I/O and launch cost on a live `Simulation`, the
//! engine's two-thread speed-up, and the span bookkeeping that turns a
//! recorder into per-layer numbers.

use crate::report::Metrics;
use crate::stats::median;
use crate::trace::Recorder;
use crate::Args;
use gpusim::Traffic;
use mas_bench::baseline::fold_hashes;
use mas_bench::json::Json;
use mas_config::Deck;
use mas_grid::{IndexSpace3, Stagger};
use mas_mhd::{checkpoint, step, Simulation, State};
use minimpi::{Comm, ReduceOp, World};
use std::path::Path;
use std::time::Instant;
use stdpar::{CodeVersion, LoopClass, Site};

/// The benchmark's own kernel site: a trivial body over one k-plane
/// measures dispatch plus the cost-model charge and nothing else.
static PROBE_SITE: Site = Site::new("perfbench_launch_probe", LoopClass::Parallel, 3);

/// Calls per transport probe and per launch probe; checkpoint I/O
/// moves the whole state, so it gets fewer.
const TRANSPORT_REPS: usize = 60;
const LAUNCH_REPS: usize = 400;
const CKPT_REPS: usize = 3;

/// Fold per-rank state hashes, rank order, as `baseline::fold_hashes`.
pub fn fold(hashes: impl Iterator<Item = u64>) -> String {
    fold_hashes(&hashes.collect::<Vec<_>>())
}

/// The spans of one rank, tagged with the rank for the trace file.
pub struct RankTrace {
    /// Rank that recorded the spans.
    pub rank: usize,
    /// Its recorder.
    pub rec: Recorder,
}

/// Median self time, seconds, of the spans named `name`.
pub fn median_of(rec: &Recorder, name: &str) -> f64 {
    let t = rec.self_times(name);
    if t.is_empty() {
        f64::NAN
    } else {
        median(&t)
    }
}

/// For every span named `parent`, the summed self time of its direct
/// children named `name`; the median over those parents, seconds.
pub fn per_parent_median(rec: &Recorder, parent: &str, name: &str) -> f64 {
    let spans = rec.spans();
    let selfs = rec.self_secs();
    let totals: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == parent)
        .map(|(i, _)| {
            spans
                .iter()
                .zip(&selfs)
                .filter(|(s, _)| s.parent == Some(i) && s.name == name)
                .map(|(_, t)| t)
                .sum()
        })
        .collect();
    if totals.is_empty() {
        f64::NAN
    } else {
        median(&totals)
    }
}

/// Write every rank's spans as one Chrome trace-event file under the
/// benchmark's scratch root: `traces/<workload>-seed<N>-<part>.json`.
pub fn write_trace<'a>(
    args: &Args,
    part: &str,
    ranks: impl Iterator<Item = &'a RankTrace>,
) -> Result<(), String> {
    let dir = args.work.parent().unwrap_or(Path::new(".")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let events: Vec<Json> = ranks.flat_map(|r| r.rec.to_chrome_events(r.rank)).collect();
    let path = dir.join(format!(
        "{}{}-seed{}-{part}.json",
        args.workload,
        if args.smoke { ".smoke" } else { "" },
        args.seed
    ));
    let doc = Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]);
    std::fs::write(&path, doc.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("perfbench: spans written to {}", path.display());
    Ok(())
}

/// The state a replay starts from.
pub struct Snapshot {
    state: State,
    time: f64,
    step: usize,
}

impl Snapshot {
    /// Copy the primary and work state plus the clock.
    pub fn take(sim: &Simulation) -> Self {
        Snapshot {
            state: sim.state.clone(),
            time: sim.time,
            step: sim.step,
        }
    }

    /// Put the simulation back to the copied state.
    pub fn restore(&self, sim: &mut Simulation) {
        sim.state = self.state.clone();
        sim.time = self.time;
        sim.step = self.step;
        sim.resumed = false;
    }
}

/// Time the transport, collective, checkpoint and launch layers on a
/// live simulation. Collective: every rank makes the same calls. Returns
/// the size of this rank's checkpoint dump in bytes.
pub fn probe_simulation(
    sim: &mut Simulation,
    comm: &Comm,
    rec: &mut Recorder,
    work: &Path,
) -> Result<u64, String> {
    for _ in 0..TRANSPORT_REPS {
        rec.span("halo.state", |_| {
            let st = &mut sim.state;
            let bufs = [
                st.rho.buf(),
                st.temp.buf(),
                st.v.r.buf(),
                st.v.t.buf(),
                st.v.p.buf(),
                st.b.r.buf(),
                st.b.t.buf(),
                st.b.p.buf(),
            ];
            let mut arrays = [
                &mut st.rho.data,
                &mut st.temp.data,
                &mut st.v.r.data,
                &mut st.v.t.data,
                &mut st.v.p.data,
                &mut st.b.r.data,
                &mut st.b.t.data,
                &mut st.b.p.data,
            ];
            sim.hx_state
                .exchange(&mut sim.par, comm, &mut arrays, &bufs);
        });
    }
    for _ in 0..TRANSPORT_REPS {
        rec.span("halo.cc", |_| {
            let st = &mut sim.state;
            let bufs = [st.temp.buf()];
            sim.hx_cc
                .exchange(&mut sim.par, comm, &mut [&mut st.temp.data], &bufs);
        });
    }
    for _ in 0..TRANSPORT_REPS {
        rec.span("minimpi.allreduce", |_| {
            let mut v = [sim.time];
            comm.allreduce(ReduceOp::Min, &mut v, &mut sim.par.ctx);
        });
    }
    let path = work.join(format!("probe-r{}.dump", comm.rank()));
    for _ in 0..CKPT_REPS {
        rec.span("ckpt.save", |_| checkpoint::save(sim, &path))
            .map_err(|e| format!("checkpoint save: {e}"))?;
        rec.span("ckpt.load", |_| checkpoint::load(sim, &path))
            .map_err(|e| format!("checkpoint load: {e}"))?;
    }
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    let _ = std::fs::remove_file(&path);
    let g = &sim.grid;
    let mut plane = IndexSpace3::interior(Stagger::CellCenter, g.nr, g.nt, g.np);
    plane.k1 = plane.k0 + 1;
    for _ in 0..LAUNCH_REPS {
        rec.span("stdpar.launch", |_| {
            sim.par.loop3(
                &PROBE_SITE,
                plane,
                Traffic::new(1, 1, 0),
                &[],
                &[],
                |i, j, k| {
                    std::hint::black_box((i, j, k));
                },
            )
        });
    }
    Ok(bytes)
}

/// Metrics of the [`probe_simulation`] spans.
pub fn put_probe_metrics(met: &mut Metrics, rec: &Recorder, ckpt_bytes: u64) {
    met.put("halo.state_us", median_of(rec, "halo.state") * 1e6);
    met.put("halo.cc_us", median_of(rec, "halo.cc") * 1e6);
    met.put(
        "minimpi.allreduce_us",
        median_of(rec, "minimpi.allreduce") * 1e6,
    );
    met.put("ckpt.save_ms", median_of(rec, "ckpt.save") * 1e3);
    met.put("ckpt.load_ms", median_of(rec, "ckpt.load") * 1e3);
    met.put("ckpt.bytes", ckpt_bytes as f64);
    met.put("stdpar.launch_us", median_of(rec, "stdpar.launch") * 1e6);
}

/// `step::advance` median wall time at one host thread over the median
/// at two, on a one-rank build of `deck`, each timed call starting from
/// the same post-warm-up snapshot.
pub fn speedup_2t(
    deck: &Deck,
    version: CodeVersion,
    seed: u64,
    reps: usize,
) -> Result<f64, String> {
    let advance_s = |threads: usize| -> Result<f64, String> {
        let mut d = deck.clone();
        d.host_threads = threads;
        World::run(1, |comm| -> Result<f64, String> {
            let mut sim = Simulation::builder(&d)
                .version(version)
                .seed(seed)
                .try_build()?;
            sim.begin_compute(&comm);
            step::advance(&mut sim, &comm);
            let snap = Snapshot::take(&sim);
            let mut t = Vec::with_capacity(reps);
            for _ in 0..reps {
                snap.restore(&mut sim);
                let t0 = Instant::now();
                step::advance(&mut sim, &comm);
                t.push(t0.elapsed().as_secs_f64());
            }
            Ok(median(&t))
        })
        .pop()
        .expect("one rank")
    };
    Ok(advance_s(1)? / advance_s(2)?)
}
