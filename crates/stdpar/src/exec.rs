//! The `Par` executor: physics loops written once, executed under the
//! active code version's policy.
//!
//! The solver never talks to `gpusim` directly; it declares loop sites and
//! calls [`Par::loop3`], [`Par::reduce_scalar`], [`Par::reduce_array`] etc.
//! `Par` runs the body (real numerics, executed by the host
//! [`Engine`](crate::engine::Engine) — tiled over the outermost axis and
//! spread across worker threads when profitable) and charges the virtual
//! device according to the version policy — launch mode, fusion, reduction
//! strategy, data mode. It also feeds the [`SiteRegistry`] that the
//! directive audit consumes.
//!
//! # Determinism
//!
//! Results are **independent of the host thread count**: the tile
//! decomposition and the reduction-combine order are fixed by the
//! iteration space alone (see `engine` module docs), so a run with
//! `MAS_HOST_THREADS=1` and one with `=16` produce bit-identical state,
//! reductions, audits, and virtual-clock timings.

use crate::engine::{default_host_threads, Engine, SyncSlice};
use crate::race::{RaceAudit, RaceAuditor};
use crate::site::{LoopClass, RegionId, Site, SiteId, SiteRegistry, Tiling};
use crate::version::{ArrayReduceStrategy, CodeVersion, LoopStyle, Policy};
use gpusim::{BufferId, DeviceContext, DeviceSpec, LaunchMode, Traffic};
use mas_grid::IndexSpace3;
use minimpi::ReduceOp;
use std::collections::HashMap;

/// Environment variable enabling the dynamic race auditor (`1`/`true`/
/// `on`/`yes`, case-insensitive). [`ParBuilder::audit`] overrides it.
pub const PAR_AUDIT_ENV: &str = "MAS_PAR_AUDIT";

/// Whether `MAS_PAR_AUDIT` asks for audit mode.
fn audit_env_default() -> bool {
    std::env::var(PAR_AUDIT_ENV)
        .map(|v| matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on" | "yes"))
        .unwrap_or(false)
}

/// Points a dispatch chunk should carry before per-chunk overhead
/// (claim-counter hop + closure call) stops mattering. Drives the
/// adaptive [`auto_tile_k`] grouping.
const TILE_TARGET_POINTS: usize = 2048;

/// The adaptive tile size in k-planes for `space` on an engine of width
/// `threads`: group planes until a chunk carries [`TILE_TARGET_POINTS`]
/// points (small planes starve per-plane dispatch), and coarsen further
/// when there are many more planes than threads (fewer claim hops).
/// **Execution-side only** — chunking groups whole k-planes, executed in
/// ascending plane order within each chunk, and reductions keep one
/// partial per *plane* combined in plane order, so results are
/// bit-identical for every tile size and thread count.
fn auto_tile_k(space: IndexSpace3, threads: usize) -> usize {
    let nk = space.k1.saturating_sub(space.k0);
    if nk <= 1 {
        return 1;
    }
    let plane = (space.i1.saturating_sub(space.i0) * space.j1.saturating_sub(space.j0)).max(1);
    let by_work = TILE_TARGET_POINTS.div_ceil(plane);
    let by_balance = (nk / (4 * threads.max(1))).max(1);
    by_work.max(by_balance).clamp(1, nk)
}

/// Execution-time penalty of the loop-flip array reduction (Listing 5):
/// the compiler serializes the inner `reduce` loop, which costs a little
/// parallel efficiency on the affected kernels (paper §IV-E; the global
/// effect is small because array reductions are a small runtime fraction).
const LOOP_FLIP_PENALTY: f64 = 1.35;

/// Execution-time penalty of atomic array updates relative to a plain
/// streaming loop (contended f64 atomics on the A100 are cheap but not
/// free).
const ATOMIC_PENALTY: f64 = 1.10;

/// Kernel-execution efficiency of `do concurrent` offload relative to the
/// hand-tuned OpenACC kernels — the "different compiler offload
/// parameters between the OpenACC and DC kernels" the paper lists among
/// the AD-vs-A performance gaps (§V-C).
const DC_KERNEL_EFFICIENCY: f64 = 0.975;

/// The cost-model extrapolation scales: the numerics run on a scaled
/// test grid while the device model charges production-size traffic.
/// Bulk (3-D) kernels are charged at `volume`; boundary/halo (2-D plane)
/// kernels at `area` — switch between them with [`Par::with_area_scale`].
///
/// An immutable value type: a `Par` is built with one `CostScales`
/// ([`ParBuilder::scales`]) and temporary overrides are *scoped*
/// ([`Par::with_scales`]), so a boundary operator can no longer leak an
/// area scale into the next bulk kernel.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostScales {
    /// Multiplier for 3-D bulk kernels (the default active scale).
    pub volume: f64,
    /// Multiplier for 2-D plane/halo kernels.
    pub area: f64,
}

impl CostScales {
    /// No extrapolation: charge what actually ran.
    pub const IDENTITY: CostScales = CostScales {
        volume: 1.0,
        area: 1.0,
    };

    /// Validated constructor (both scales must be ≥ 1 and finite).
    pub fn new(volume: f64, area: f64) -> Self {
        assert!(
            volume >= 1.0 && volume.is_finite() && area >= 1.0 && area.is_finite(),
            "bad cost scales ({volume}, {area})"
        );
        CostScales { volume, area }
    }
}

impl Default for CostScales {
    fn default() -> Self {
        CostScales::IDENTITY
    }
}

/// One modeled kernel launch of a fused host sweep ([`Par::fused_rows`],
/// [`Par::fused_planes`]): the site, traffic and buffers its own unfused
/// call would pass.
#[derive(Clone, Copy, Debug)]
pub struct Launch<'a> {
    site: &'a Site,
    traffic: Traffic,
    reads: &'a [BufferId],
    writes: &'a [BufferId],
}

impl<'a> Launch<'a> {
    /// A row loop, booked as [`Par::loop3_rows`] books it.
    pub fn rows(
        site: &'a Site,
        traffic: Traffic,
        reads: &'a [BufferId],
        writes: &'a [BufferId],
    ) -> Self {
        debug_assert!(is_row_loop(site));
        Launch {
            site,
            traffic,
            reads,
            writes,
        }
    }

    /// A scalar reduction, booked as [`Par::reduce_scalar_rows`] books it.
    pub fn reduce(site: &'a Site, traffic: Traffic, reads: &'a [BufferId]) -> Self {
        debug_assert!(matches!(
            site.class,
            LoopClass::ScalarReduction | LoopClass::KernelsIntrinsic
        ));
        Launch {
            site,
            traffic,
            reads,
            writes: &[],
        }
    }
}

/// Whether `site` is launched through the row-loop form.
fn is_row_loop(site: &Site) -> bool {
    matches!(
        site.class,
        LoopClass::Parallel | LoopClass::CallsRoutine | LoopClass::AtomicUpdate
    )
}

/// Builder for [`Par`] — replaces the old positional
/// `Par::new(spec, version, rank, seed)` constructor.
///
/// ```
/// use stdpar::{CodeVersion, CostScales, Par};
/// use gpusim::DeviceSpec;
///
/// let par = Par::builder(DeviceSpec::a100_40gb())
///     .version(CodeVersion::Ad2xu)
///     .rank(0)
///     .seed(42)
///     .threads(2)
///     .scales(CostScales::new(8.0, 4.0))
///     .build();
/// assert_eq!(par.host_threads(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct ParBuilder {
    spec: DeviceSpec,
    version: CodeVersion,
    rank: usize,
    seed: u64,
    threads: Option<usize>,
    scales: CostScales,
    audit: Option<bool>,
}

impl ParBuilder {
    /// Code version to execute under (default: [`CodeVersion::A`]).
    pub fn version(mut self, v: CodeVersion) -> Self {
        self.version = v;
        self
    }

    /// MPI-style rank of this executor (default 0).
    pub fn rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Seed for the device model's timing jitter (default 1).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Host engine width. Default: `MAS_HOST_THREADS` env if set, else
    /// the machine's available parallelism. Results never depend on this
    /// — only wall-clock does.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n.max(1));
        self
    }

    /// Cost-model extrapolation scales (default [`CostScales::IDENTITY`]).
    pub fn scales(mut self, scales: CostScales) -> Self {
        self.scales = scales;
        self
    }

    /// Enable (or force off) the dynamic race auditor. Default: the
    /// [`PAR_AUDIT_ENV`] environment variable. In audit mode, the first
    /// launch of every [`Tiling::Outer`] site per iteration-space shape
    /// runs serially under instrumented `ParView3` handles and is checked
    /// against the `do concurrent` iteration-independence contract; see
    /// [`crate::race`]. Results are bit-identical to audit-off runs.
    pub fn audit(mut self, on: bool) -> Self {
        self.audit = Some(on);
        self
    }

    /// Construct the executor.
    pub fn build(self) -> Par {
        let policy = self.version.policy();
        let ctx = DeviceContext::new(self.spec, policy.data_mode, self.rank, self.seed);
        let threads = self.threads.unwrap_or_else(default_host_threads);
        let audit_on = self.audit.unwrap_or_else(audit_env_default);
        Par {
            ctx,
            policy,
            registry: SiteRegistry::new(),
            engine: Engine::new(threads),
            point_scale: self.scales.volume,
            scales: self.scales,
            plans: HashMap::new(),
            audit: RaceAuditor::new(audit_on),
            scratch: Vec::new(),
            carry: Vec::new(),
        }
    }
}

/// Cached per-site execution plan: the interned registry slot plus the
/// last iteration bounds and scaled launch cost, so steady-state steps
/// (same site, same bounds, same scale — the overwhelmingly common case)
/// skip the registry's string-keyed map entirely.
#[derive(Clone, Copy, Debug)]
struct Plan {
    slot: usize,
    /// The site's interned name (for surfacing the plan in run reports).
    name: &'static str,
    space: IndexSpace3,
    point_scale: f64,
    scaled: usize,
    /// Learned engine tile size in k-planes (see [`auto_tile_k`]).
    tile_k: usize,
}

/// Plan-cache key: the site name's address + length. Site names are
/// `&'static str`, so the address is stable for the process lifetime,
/// and two *different* strings can never share both start address and
/// length. Two distinct literals with equal text may get separate
/// entries — harmless, they intern to the same registry slot.
type PlanKey = (usize, usize);

fn plan_key(site: &Site) -> PlanKey {
    (site.name.as_ptr() as usize, site.name.len())
}

/// One rank's executor: virtual device + policy + site registry + host
/// execution engine.
pub struct Par {
    /// The virtual device (clock, memory model, profiler).
    pub ctx: DeviceContext,
    /// Active code-version policy.
    pub policy: Policy,
    /// Site registry feeding the directive audit.
    pub registry: SiteRegistry,
    /// Host-parallel execution engine (tile scheduler + worker pool).
    engine: Engine,
    /// The currently *active* cost-model multiplier applied to every
    /// launch's point count (normally `scales.volume`; `scales.area`
    /// inside a [`Par::with_area_scale`] scope).
    point_scale: f64,
    /// The configured scale pair.
    scales: CostScales,
    /// Per-site plan cache (see [`Plan`]).
    plans: HashMap<PlanKey, Plan>,
    /// Dynamic race auditor (no-op unless audit mode is on).
    audit: RaceAuditor,
    /// Reusable reduction-partials buffer shared by [`Par::reduce_scalar`]
    /// and [`Par::reduce_array`] (they never nest) — steady-state
    /// reductions allocate nothing.
    scratch: Vec<f64>,
    /// Per-chunk scratch of the plane sweeps ([`Par::fused_planes`]):
    /// one slice per engine chunk, grown to its high-water mark and then
    /// reused.
    carry: Vec<f64>,
}

impl Par {
    /// Start building an executor for a device described by `spec`.
    pub fn builder(spec: DeviceSpec) -> ParBuilder {
        ParBuilder {
            spec,
            version: CodeVersion::A,
            rank: 0,
            seed: 1,
            threads: None,
            scales: CostScales::IDENTITY,
            audit: None,
        }
    }

    /// The active code version.
    pub fn version(&self) -> CodeVersion {
        self.policy.version
    }

    /// Width of the host execution engine (1 = serial).
    pub fn host_threads(&self) -> usize {
        self.engine.threads()
    }

    /// The race-audit summary accumulated so far (all-zero and
    /// `enabled: false` when audit mode is off). See [`crate::race`].
    pub fn race_audit(&self) -> &RaceAudit {
        self.audit.audit()
    }

    /// Current cost-model point scale.
    pub fn point_scale(&self) -> f64 {
        self.point_scale
    }

    /// The configured scale pair.
    pub fn scales(&self) -> CostScales {
        self.scales
    }

    /// Run `f` with `scales` installed (active scale = `scales.volume`),
    /// restoring the previous configuration afterwards — scale changes
    /// cannot leak across operators.
    pub fn with_scales<R>(&mut self, scales: CostScales, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = (self.scales, self.point_scale);
        self.scales = scales;
        self.point_scale = scales.volume;
        let r = f(self);
        (self.scales, self.point_scale) = prev;
        r
    }

    /// Run `f` with the *area* scale active — the boundary/halo form of
    /// [`Par::with_scales`]: plane kernels inside the scope are charged
    /// at `scales.area` instead of `scales.volume`.
    pub fn with_area_scale<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let prev = self.point_scale;
        self.point_scale = self.scales.area;
        let r = f(self);
        self.point_scale = prev;
        r
    }

    /// Scale a launch's point count by the active model scale.
    fn scaled(&self, n: usize) -> usize {
        (n as f64 * self.point_scale).round() as usize
    }

    /// Look up (or build) the execution plan for `site` over `space`:
    /// the interned registry slot, the cached scaled launch cost, and
    /// the learned engine tile size for this (shape, thread count).
    fn plan(&mut self, site: &Site, space: IndexSpace3) -> (usize, usize, usize) {
        let key = plan_key(site);
        if let Some(p) = self.plans.get(&key) {
            if p.space == space && p.point_scale == self.point_scale {
                return (p.slot, p.scaled, p.tile_k);
            }
            let slot = p.slot;
            let scaled = self.scaled(space.len());
            let tile_k = auto_tile_k(space, self.engine.threads());
            self.plans.insert(
                key,
                Plan { slot, name: site.name, space, point_scale: self.point_scale, scaled, tile_k },
            );
            return (slot, scaled, tile_k);
        }
        let slot = self.registry.slot_of(site);
        let scaled = self.scaled(space.len());
        let tile_k = auto_tile_k(space, self.engine.threads());
        self.plans.insert(
            key,
            Plan { slot, name: site.name, space, point_scale: self.point_scale, scaled, tile_k },
        );
        (slot, scaled, tile_k)
    }

    /// The cached tile plans, one `(site, nk, tile_k)` entry per tiled
    /// site (single-plane spaces never dispatch and are omitted), sorted
    /// by site name. Surfaced in `mas-mhd`'s `RunReport` so the chosen
    /// plan is visible alongside the perf numbers.
    pub fn tile_plans(&self) -> Vec<(&'static str, usize, usize)> {
        let mut v: Vec<_> = self
            .plans
            .values()
            .filter(|p| p.space.k1.saturating_sub(p.space.k0) > 1)
            .map(|p| (p.name, p.space.k1 - p.space.k0, p.tile_k))
            .collect();
        v.sort_unstable();
        v
    }

    /// Apply the launch mode for `site` and return whether it is DC-style.
    fn prepare_launch(&mut self, site: &Site) -> LoopStyle {
        let style = self.policy.loop_style(site.class);
        let mode = if style == LoopStyle::Acc && self.policy.async_for(site.class) {
            LaunchMode::Async
        } else {
            LaunchMode::Sync
        };
        self.ctx.set_launch_mode(mode);
        // The DC offload-parameter penalty is a GPU-codegen artifact; on
        // CPU targets `do concurrent` compiles to the very same loops
        // (Table III: Codes 1 and 2 time identically on the EPYC nodes).
        let is_gpu = self.ctx.spec.launch_overhead_us > 0.0;
        self.ctx.set_exec_derate(match style {
            LoopStyle::Dc if is_gpu => DC_KERNEL_EFFICIENCY,
            _ => 1.0,
        });
        style
    }

    /// An OpenACC `parallel` region holding several independent loops.
    ///
    /// Under Code 1 (A) the compiler fuses the loops into one kernel (one
    /// launch overhead); every DC version fissions them (paper §IV-B).
    pub fn region<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let fuse = self.policy.fuse_regions;
        if fuse {
            self.ctx.begin_region();
        }
        let r = f(self);
        if fuse {
            self.ctx.end_region();
        }
        r
    }

    /// A plain (or routine-calling / atomic-scatter) parallel loop nest.
    ///
    /// `body(i, j, k)` is invoked for every point of `space`; `traffic`
    /// describes per-point memory traffic for the model; `reads`/`writes`
    /// are the model buffers touched (for UM paging). Executes as
    /// [`Par::loop3_rows`] with each row's points visited in ascending
    /// `i`, so both forms share one launch and tiling path.
    ///
    /// # Iteration-independence contract
    /// Like a Fortran `do concurrent` body: on a [`Tiling::Outer`] site,
    /// distinct iterations must not write the same element, and must not
    /// read, at a *different k*, an array any iteration writes. Bodies
    /// with k-neighbour recurrences declare [`Site::serial`].
    pub fn loop3<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
        body: F,
    ) where
        F: Fn(usize, usize, usize) + Sync,
    {
        let (i0, i1) = (space.i0, space.i1);
        self.loop3_rows(site, space, traffic, reads, writes, |j, k| {
            for i in i0..i1 {
                body(i, j, k);
            }
        });
    }

    /// The row-sliced form of [`Par::loop3`]: `body(j, k)` is invoked
    /// once per innermost-axis **row** of `space` instead of once per
    /// point, and is expected to process the full `space.i0..space.i1`
    /// window of that row through the row accessors
    /// (`ParView3::row_mut` / `Array3::row`), so the compiler sees
    /// contiguous `&[f64]` slices it can autovectorize — the host
    /// analogue of the paper's requirement that `do concurrent` bodies
    /// expose contiguous innermost access to the optimizer.
    ///
    /// Serial sites and single-plane spaces run the rows in Fortran order
    /// on the caller (the unified serial fast path — no tile census);
    /// other sites run per k-plane through [`Par::run_planes`]. The
    /// iteration-independence contract of [`Par::loop3`] applies per row:
    /// on a [`Tiling::Outer`] site each `(j, k)` row must write only rows
    /// it owns and read no row another k-plane writes. The race auditor
    /// observes rows at element granularity (row accessors record
    /// per-element footprints).
    pub fn loop3_rows<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
        body: F,
    ) where
        F: Fn(usize, usize) + Sync,
    {
        debug_assert!(is_row_loop(site));
        let (slot, tile_k, exec) = self.book(site, space, traffic, reads, writes);
        let nk = space.k1.saturating_sub(space.k0);
        let plane = |t: usize| {
            let k = space.k0 + t;
            for j in space.j0..space.j1 {
                body(j, k);
            }
        };
        if site.tiling == Tiling::Serial || nk <= 1 {
            (0..nk).for_each(plane);
        } else {
            self.run_planes(site, space, nk, tile_k, &plane);
        }
        self.registry.note_slot(slot, space.len(), exec);
    }

    /// Book one modeled launch of `site` over `space` on the device
    /// model: apply the site's launch mode, look up its plan and charge
    /// the launch. Returns the registry slot, the engine tile size and
    /// the modeled time, for the registry note that closes the launch.
    fn book(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
    ) -> (usize, usize, f64) {
        self.prepare_launch(site);
        let (slot, scaled, tile_k) = self.plan(site, space);
        let exec = self.ctx.launch(site.name, scaled, traffic, reads, writes);
        (slot, tile_k, exec)
    }

    /// Several modeled launches, one host sweep: the fused-launch form.
    ///
    /// Each of `launches` is booked on the device model exactly as its
    /// own [`Par::loop3_rows`] or [`Par::reduce_scalar_rows`] call would
    /// book it, in order — launch mode, plan, charge, registry note — so
    /// the model clock, UM paging, the jitter stream, the launch count
    /// and every per-site registry row are those of the separate calls.
    /// Then `body(acc, j, k)` runs **once** per row of `space`, under the
    /// first launch's site (its tiling, tile plan and race audit), and is
    /// folded exactly as [`Par::reduce_scalar_rows`] folds: per-plane
    /// partials combined in plane order from `init`, or one Fortran-order
    /// fold for serial and single-plane spaces. The host-tile census
    /// counts the one sweep.
    ///
    /// The body does the work of every launch for its row, in launch
    /// order: a row loop followed by a reduction writes its whole row
    /// first (the loop that vectorizes), then folds that row into `acc`
    /// in ascending `i` — so the fold, and every array, is bit-identical
    /// to the unfused calls. All launches must share one tiling.
    pub fn fused_rows<F>(
        &mut self,
        space: IndexSpace3,
        launches: &[Launch<'_>],
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(f64, usize, usize) -> f64 + Sync,
    {
        let (sweep, tile_k) = self.book_sweep(space, launches);
        self.fold_rows(sweep, space, tile_k, op, init, body)
    }

    /// The plane form of [`Par::fused_rows`]: the same launches booked
    /// the same way, and the same fold, but `body(acc, k, carry, first)`
    /// runs once per **k-plane** of `space` and folds that plane's rows
    /// into `acc` in ascending `j`, each in ascending `i`.
    ///
    /// `carry` is `carry_len` values of scratch owned by the body's
    /// chunk: the engine runs a chunk's planes in ascending order on one
    /// thread, so a plane may hand values on to the next plane through
    /// it (a stencil's shared face fluxes, a grid-static profile).
    /// `first` marks a chunk's first plane; such a plane must compute
    /// its carries fresh and read nothing its chunk left from an earlier
    /// call. Serial sites and single-plane spaces run every plane in
    /// order through one chunk; an audited launch runs the engine's
    /// chunks one after another on the caller. A carried value must
    /// equal the value the plane would compute fresh, bit for bit: then
    /// the chunking, which depends on the engine width, stays invisible
    /// to results. The scratch is one buffer owned by `Par`, so
    /// steady-state sweeps allocate nothing.
    pub fn fused_planes<F>(
        &mut self,
        space: IndexSpace3,
        launches: &[Launch<'_>],
        op: ReduceOp,
        init: f64,
        carry_len: usize,
        body: F,
    ) -> f64
    where
        F: Fn(f64, usize, &mut [f64], bool) -> f64 + Sync,
    {
        let (sweep, tile_k) = self.book_sweep(space, launches);
        self.fold_planes(sweep, space, tile_k, op, init, carry_len, body)
    }

    /// The loop form of [`Par::fused_planes`]: one row loop of `site`,
    /// booked as [`Par::loop3_rows`] books it, whose `body(k, carry,
    /// first)` writes the whole k-plane `k` with the per-chunk scratch
    /// `carry`.
    #[allow(clippy::too_many_arguments)]
    pub fn loop3_planes<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
        carry_len: usize,
        body: F,
    ) where
        F: Fn(usize, &mut [f64], bool) + Sync,
    {
        let launches = [Launch::rows(site, traffic, reads, writes)];
        self.fused_planes(space, &launches, ReduceOp::Sum, 0.0, carry_len, |acc, k, carry, first| {
            body(k, carry, first);
            acc
        });
    }

    /// Book every launch of a fused sweep in order, as its own call
    /// would book it, and return the sweep's site (the first launch's)
    /// and tile size.
    fn book_sweep<'s>(&mut self, space: IndexSpace3, launches: &[Launch<'s>]) -> (&'s Site, usize) {
        let sweep = launches[0].site;
        let mut tile_k = 1;
        for l in launches {
            assert_eq!(
                l.site.tiling, sweep.tiling,
                "fused launches must share one tiling"
            );
            let (slot, tk, exec) = self.book(l.site, space, l.traffic, l.reads, l.writes);
            self.registry.note_slot(slot, space.len(), exec);
            // One space on one engine: every launch plans the same tiles.
            tile_k = tk;
        }
        (sweep, tile_k)
    }

    /// The tiled launch shared by every kernel form: `plane(t)` runs once
    /// for each k-plane `t` (plane `space.k0 + t`) of a multi-plane
    /// space and is counted in the host-tile census. The planes either
    /// run serially under capture, when the race auditor claims the
    /// launch, or go to the engine in chunks of `tile_k` planes. The
    /// audit always observes per-plane footprints; the chunking is
    /// invisible to it and to the census.
    fn run_planes(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        nk: usize,
        tile_k: usize,
        plane: &(dyn Fn(usize) + Sync),
    ) {
        self.ctx.prof.note_host_tiles(nk as u64);
        if self.audit.wants(site, space, nk) {
            self.audit.run_audited_tiles(site.name, space.k0, nk, plane);
        } else {
            dispatch_chunked(&mut self.engine, nk, tile_k, space.len(), plane);
        }
    }

    /// Scalar reduction over a loop nest (CFL minima, PCG dot products).
    ///
    /// OpenACC `reduction` clause through Code 3; DC2X `reduce` from
    /// Code 4 on — numerically identical here because the combine order
    /// is the fixed tile order (see `engine` docs), unlike the real
    /// code's atomic orderings which reproduce only to round-off.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_scalar<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(usize, usize, usize) -> f64 + Sync,
    {
        debug_assert!(matches!(
            site.class,
            LoopClass::ScalarReduction | LoopClass::KernelsIntrinsic
        ));
        self.reduce_points(site, space, traffic, reads, op, init, body)
    }

    /// The row-sliced form of [`Par::reduce_scalar`]: `body(acc, j, k)`
    /// folds the `space.i0..space.i1` window of row `(j, k)` into `acc`
    /// — applying `op` per element **in ascending `i`**, e.g.
    /// `row.iter().fold(acc, |a, &v| a + term(v))` for a sum — and
    /// returns the updated accumulator. `reduce_scalar` runs through
    /// this fold with exactly that row body, so a row body evaluating
    /// the same per-point expressions reduces bit-identically. Launch
    /// charge, census, and traffic are identical to `reduce_scalar`.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_scalar_rows<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(f64, usize, usize) -> f64 + Sync,
    {
        debug_assert!(matches!(
            site.class,
            LoopClass::ScalarReduction | LoopClass::KernelsIntrinsic
        ));
        self.reduce_rows(site, space, traffic, reads, op, init, body)
    }

    /// Array reduction: each point contributes `(target, value)` and the
    /// contributions accumulate into `out[target]`.
    ///
    /// Strategy per version (paper Listings 3–5): ACC atomics, DC+atomics,
    /// or the flipped outer-DC/inner-reduce form. All three use the same
    /// tile decomposition here, so results are bitwise identical across
    /// versions *and* thread counts — the real code's atomic orderings
    /// differ at round-off, which the paper also absorbs in its
    /// "validated within solver tolerances" statement.
    #[allow(clippy::too_many_arguments)]
    pub fn reduce_array<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        writes: &[BufferId],
        out: &mut [f64],
        body: F,
    ) where
        F: Fn(usize, usize, usize) -> (usize, f64) + Sync,
    {
        debug_assert_eq!(site.class as u8, LoopClass::ArrayReduction as u8);
        let penalty = match self.policy.array_reduce {
            ArrayReduceStrategy::AccAtomic | ArrayReduceStrategy::DcAtomic => ATOMIC_PENALTY,
            ArrayReduceStrategy::LoopFlip => LOOP_FLIP_PENALTY,
        };
        // Charge the penalized traffic by inflating the per-point cost.
        let eff = Traffic {
            reads: ((traffic.reads as f64) * penalty).ceil() as u32,
            writes: traffic.writes,
            flops: traffic.flops,
        };
        let (slot, tile_k, exec) = self.book(site, space, eff, reads, writes);

        let nk = space.k1.saturating_sub(space.k0);
        if site.tiling == Tiling::Serial || nk <= 1 {
            // Unified serial fast path (see `loop3_rows`): direct
            // accumulation, no tile census.
            space.for_each(|i, j, k| {
                let (t, v) = body(i, j, k);
                out[t] += v;
            });
        } else {
            // One dense partial row per plane, accumulated in-plane in
            // Fortran order, then combined row-by-row in plane order.
            // Steady state reuses the shared scratch buffer.
            let width = out.len();
            let mut partials = std::mem::take(&mut self.scratch);
            partials.clear();
            partials.resize(nk * width, 0.0);
            {
                let ps = SyncSlice::new(&mut partials);
                let k0 = space.k0;
                self.run_planes(site, space, nk, tile_k, &|t: usize| {
                    let k = k0 + t;
                    let row = t * width;
                    for j in space.j0..space.j1 {
                        for i in space.i0..space.i1 {
                            let (target, v) = body(i, j, k);
                            debug_assert!(target < width);
                            ps.add(row + target, v);
                        }
                    }
                });
            }
            for t in 0..nk {
                let row = &partials[t * width..(t + 1) * width];
                for (o, &p) in out.iter_mut().zip(row) {
                    *o += p;
                }
            }
            self.scratch = partials;
        }
        self.registry.note_slot(slot, space.len(), exec);
    }

    /// An OpenACC `kernels` region wrapping a Fortran intrinsic reduction
    /// (e.g. `MINVAL`). Executes like a scalar reduction; classified
    /// separately because Codes 5–6 must expand it by hand (paper §IV-E).
    #[allow(clippy::too_many_arguments)]
    pub fn kernels_intrinsic<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(usize, usize, usize) -> f64 + Sync,
    {
        debug_assert_eq!(site.class as u8, LoopClass::KernelsIntrinsic as u8);
        self.reduce_points(site, space, traffic, reads, op, init, body)
    }

    /// Point form of [`Par::reduce_rows`]: each row folds its points'
    /// values into the accumulator in ascending `i`.
    #[allow(clippy::too_many_arguments)]
    fn reduce_points<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(usize, usize, usize) -> f64 + Sync,
    {
        let (i0, i1) = (space.i0, space.i1);
        self.reduce_rows(site, space, traffic, reads, op, init, |mut acc, j, k| {
            for i in i0..i1 {
                acc = op_apply(op, acc, body(i, j, k));
            }
            acc
        })
    }

    /// The scalar-reduction launch behind every scalar-reduction form:
    /// book the launch, fold the rows ([`Par::fold_rows`]), note it.
    #[allow(clippy::too_many_arguments)]
    fn reduce_rows<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        traffic: Traffic,
        reads: &[BufferId],
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(f64, usize, usize) -> f64 + Sync,
    {
        let (slot, tile_k, exec) = self.book(site, space, traffic, reads, &[]);
        let acc = self.fold_rows(site, space, tile_k, op, init, body);
        self.registry.note_slot(slot, space.len(), exec);
        acc
    }

    /// [`Par::fold_planes`] over a row body: each plane folds its rows
    /// in ascending `j`, with no scratch.
    fn fold_rows<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        tile_k: usize,
        op: ReduceOp,
        init: f64,
        body: F,
    ) -> f64
    where
        F: Fn(f64, usize, usize) -> f64 + Sync,
    {
        let (j0, j1) = (space.j0, space.j1);
        self.fold_planes(site, space, tile_k, op, init, 0, |mut acc, k, _, _| {
            for j in j0..j1 {
                acc = body(acc, j, k);
            }
            acc
        })
    }

    /// The deterministic tiled fold behind every scalar reduction and
    /// every fused sweep. Serial sites and single-plane spaces fold every
    /// plane in order on the caller, starting from `init`, through one
    /// scratch chunk. Otherwise each k-plane folds into its own partial,
    /// independent of the engine chunking, and the partials combine in
    /// plane order on the calling thread. The decomposition depends only
    /// on `space`, so the result is bit-identical for every engine width
    /// and tile size, as long as a carried scratch value equals the one
    /// a chunk's first plane computes fresh (see [`Par::fused_planes`]).
    #[allow(clippy::too_many_arguments)]
    fn fold_planes<F>(
        &mut self,
        site: &Site,
        space: IndexSpace3,
        tile_k: usize,
        op: ReduceOp,
        init: f64,
        carry_len: usize,
        body: F,
    ) -> f64
    where
        F: Fn(f64, usize, &mut [f64], bool) -> f64 + Sync,
    {
        let (k0, nk) = (space.k0, space.k1.saturating_sub(space.k0));
        let serial = site.tiling == Tiling::Serial || nk <= 1;
        let tile_k = tile_k.max(1);
        let n_chunks = if serial { 1 } else { nk.div_ceil(tile_k) };
        // Grown once to the high-water mark, then reused as is: a chunk's
        // first plane writes its carries before anything reads them.
        let mut carry = std::mem::take(&mut self.carry);
        if carry.len() < n_chunks * carry_len {
            carry.resize(n_chunks * carry_len, 0.0);
        }
        let acc = if serial {
            let chunk = &mut carry[..carry_len];
            (0..nk).fold(init, |acc, t| body(acc, k0 + t, chunk, t == 0))
        } else {
            let ident = op_identity(op);
            // Steady state reuses the shared scratch buffer.
            let mut partials = std::mem::take(&mut self.scratch);
            partials.clear();
            partials.resize(nk, ident);
            {
                let ps = SyncSlice::new(&mut partials);
                let cs = SyncSlice::new(&mut carry);
                // The audited pass writes the same per-plane partials, so
                // the combine below keeps the engine's exact FP order.
                self.run_planes(site, space, nk, tile_k, &|t: usize| {
                    // SAFETY: chunk `t / tile_k` has exactly one owner at
                    // a time. `dispatch_chunked` hands the planes
                    // `c·tile_k .. (c+1)·tile_k` to one engine task, which
                    // runs them in ascending order (with `tile_k == 1`
                    // every plane is its own task and chunk), and the
                    // engine's claim counter gives each task to one
                    // thread. The audited path runs every plane serially
                    // on the caller. No plane keeps its slice past its
                    // own call, and the fork-join ends before `carry` is
                    // touched again.
                    let chunk = unsafe { cs.chunk_mut(t / tile_k, carry_len) };
                    ps.set(t, body(ident, k0 + t, chunk, t.is_multiple_of(tile_k)));
                });
            }
            let acc = partials.iter().fold(init, |a, &p| op_apply(op, a, p));
            self.scratch = partials;
            acc
        };
        self.carry = carry;
        acc
    }

    /// Array-creation wrapper: the modeled cost of allocating a work
    /// array. Only Code 6 (D2XAd)'s wrapper routines, which replaced raw
    /// `allocate`+`enter data`, issue a zero-initialization *kernel* the
    /// original code did not have (§IV-F); that launch is booked only
    /// under `policy.wrapper_init_kernels`. `n_points` is the array's
    /// storage size in values.
    ///
    /// The host does not fill: the callers' work arrays start at zero
    /// when created, and every solver writes each value before it reads
    /// it, so a per-call fill would only spend host time.
    pub fn wrapper_alloc(&mut self, name: &'static str, buf: BufferId, n_points: usize) {
        if self.policy.wrapper_init_kernels {
            self.ctx.set_launch_mode(LaunchMode::Sync);
            self.ctx
                .launch(name, self.scaled(n_points), Traffic::new(0, 1, 0), &[], &[buf]);
        }
    }

    /// Intern a directive call-site label — the handle for
    /// [`Par::update_host`] / [`Par::update_device`] / [`Par::wait_point`].
    pub fn site_id(&mut self, label: &'static str) -> SiteId {
        self.registry.site_id(label)
    }

    /// Intern a data-region label — the handle for [`Par::data_region`].
    pub fn region_id(&mut self, label: &'static str) -> RegionId {
        self.registry.region_id(label)
    }

    /// Declare a manual data region: all `bufs` are copied in (manual
    /// mode) or lazily paged (UM). Registered for the audit either way —
    /// the audit decides per version whether the directives survive.
    pub fn data_region(&mut self, region: RegionId, bufs: &[BufferId]) {
        self.registry.note_data_region(region, bufs.len());
        for &b in bufs {
            self.ctx.enter_data(b);
        }
    }

    /// `!$acc update host` call site.
    pub fn update_host(&mut self, at: SiteId, buf: BufferId) {
        self.registry.note_update(at);
        self.ctx.update_host(buf);
    }

    /// `!$acc update device` call site.
    pub fn update_device(&mut self, at: SiteId, buf: BufferId) {
        self.registry.note_update(at);
        self.ctx.update_device(buf);
    }

    /// Host code touches a buffer (after `update_host` in manual mode;
    /// triggers paging under UM).
    pub fn host_access(&mut self, buf: BufferId, write: bool) {
        self.ctx.host_touch(buf, write);
    }

    /// Derived-type structure placed on the device (needed even under UM —
    /// static data does not page; paper §IV-C).
    pub fn derived_type_region(&mut self, label: &'static str) {
        self.registry.note_derived_type(label);
    }

    /// Module variable used inside a device routine (`!$acc declare`).
    pub fn declare_site(&mut self, label: &'static str) {
        self.registry.note_declare(label);
    }

    /// `!$acc wait` flush point (before MPI, before host reads).
    pub fn wait_point(&mut self, at: SiteId) {
        self.registry.note_wait(at);
        // Model: execution is already serialized on the virtual clock, so
        // the wait itself costs nothing extra.
    }

    /// MPI buffer exposed via `host_data use_device` (CUDA-aware path).
    pub fn host_data_site(&mut self, label: &'static str) {
        self.registry.note_host_data(label);
    }
}

/// Dispatch `nk` per-plane tasks to the engine, grouped into chunks of
/// `tile_k` consecutive planes (the adaptive tile plan). Each chunk
/// executes its planes in ascending order, so for any `tile_k` every
/// plane-level task runs exactly once with the same per-plane effect —
/// chunking changes scheduling granularity, never results. Chunk `c` is
/// planes `c·tile_k .. (c+1)·tile_k` on one task: [`Par::fold_planes`]
/// gives each chunk its own scratch on that grouping.
fn dispatch_chunked(
    engine: &mut Engine,
    nk: usize,
    tile_k: usize,
    n_points: usize,
    plane: &(dyn Fn(usize) + Sync),
) {
    if tile_k <= 1 {
        engine.run_tiles(nk, n_points, plane);
        return;
    }
    let n_chunks = nk.div_ceil(tile_k);
    let chunk = |c: usize| {
        let t0 = c * tile_k;
        let t1 = (t0 + tile_k).min(nk);
        for t in t0..t1 {
            plane(t);
        }
    };
    engine.run_tiles(n_chunks, n_points, &chunk);
}

#[inline(always)]
fn op_apply(op: ReduceOp, a: f64, b: f64) -> f64 {
    match op {
        ReduceOp::Sum => a + b,
        ReduceOp::Min => a.min(b),
        ReduceOp::Max => a.max(b),
    }
}

#[inline(always)]
fn op_identity(op: ReduceOp) -> f64 {
    match op {
        ReduceOp::Sum => 0.0,
        ReduceOp::Min => f64::INFINITY,
        ReduceOp::Max => f64::NEG_INFINITY,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DataMode;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static PLAIN: Site = Site::par3("plain");
    static PLAIN2: Site = Site::par3("plain2");
    static RED: Site = Site::new("red", LoopClass::ScalarReduction, 3);
    static ARED: Site = Site::new("ared", LoopClass::ArrayReduction, 2);
    static SWEEP: Site = Site::par3("sweep").serial();

    fn space(n: usize) -> IndexSpace3 {
        IndexSpace3 {
            i0: 0,
            i1: n,
            j0: 0,
            j1: n,
            k0: 0,
            k1: n,
        }
    }

    fn par(v: CodeVersion) -> Par {
        par_threads(v, 1)
    }

    fn par_threads(v: CodeVersion, threads: usize) -> Par {
        let mut spec = DeviceSpec::a100_40gb();
        spec.jitter_sigma = 0.0;
        let mut p = Par::builder(spec).version(v).threads(threads).build();
        p.ctx.set_phase(gpusim::Phase::Compute);
        p
    }

    #[test]
    fn loop3_runs_body_everywhere() {
        let mut p = par(CodeVersion::A);
        let b = p.ctx.mem.register(8 * 64, "x");
        p.ctx.enter_data(b);
        let count = AtomicUsize::new(0);
        p.loop3(&PLAIN, space(4), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 64);
        assert_eq!(p.registry.total_invocations(), 1);
    }

    #[test]
    fn version_a_fuses_ad_fissions() {
        let wall = |v: CodeVersion| {
            let mut p = par(v);
            let b = p.ctx.mem.register(8 * 64, "x");
            p.ctx.enter_data(b);
            let t0 = p.ctx.clock.now_us();
            p.region(|p| {
                for _ in 0..6 {
                    p.loop3(&PLAIN, space(4), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
                }
            });
            p.ctx.clock.now_us() - t0
        };
        let a = wall(CodeVersion::A);
        let ad = wall(CodeVersion::Ad);
        // A: one async-ish overhead; AD: six sync overheads.
        assert!(ad > a + 4.0 * 8.0, "a={a} ad={ad}");
    }

    #[test]
    fn reduce_scalar_deterministic_across_versions() {
        let run = |v| {
            let mut p = par(v);
            let b = p.ctx.mem.register(8 * 27, "x");
            p.ctx.enter_data(b);
            p.reduce_scalar(
                &RED,
                space(3),
                Traffic::new(1, 0, 1),
                &[b],
                ReduceOp::Sum,
                0.0,
                |i, j, k| (i + 10 * j + 100 * k) as f64,
            )
        };
        let a = run(CodeVersion::A);
        for v in CodeVersion::ALL {
            assert_eq!(run(v), a, "{v:?}");
        }
    }

    #[test]
    fn reduce_array_same_result_all_strategies() {
        let run = |v| {
            let mut p = par(v);
            let b = p.ctx.mem.register(8 * 27, "x");
            let o = p.ctx.mem.register(8 * 3, "out");
            p.ctx.enter_data(b);
            p.ctx.enter_data(o);
            let mut out = vec![0.0; 3];
            p.reduce_array(
                &ARED,
                space(3),
                Traffic::new(2, 1, 2),
                &[b],
                &[o],
                &mut out,
                |i, j, k| (i, (j + k) as f64),
            );
            out
        };
        let a = run(CodeVersion::A);
        for v in CodeVersion::ALL {
            assert_eq!(run(v), a, "{v:?}");
        }
    }

    #[test]
    fn loop_flip_charges_more_than_plain_but_same_result() {
        let cost = |v| {
            let mut p = par(v);
            let b = p.ctx.mem.register(8 * 27, "x");
            let o = p.ctx.mem.register(8 * 3, "o");
            p.ctx.enter_data(b);
            p.ctx.enter_data(o);
            let mut out = vec![0.0; 3];
            let t0 = p.ctx.clock.now_us();
            p.reduce_array(
                &ARED,
                space(3),
                Traffic::new(4, 1, 2),
                &[b],
                &[o],
                &mut out,
                |i, _, _| (i, 1.0),
            );
            p.ctx.clock.now_us() - t0
        };
        assert!(cost(CodeVersion::D2xu) > cost(CodeVersion::Ad2xu));
    }

    /// Only the modeled zero-fill *kernel launch* is D2XAd-specific.
    #[test]
    fn wrapper_alloc_charges_only_d2xad() {
        for v in CodeVersion::ALL {
            let mut p = par(v);
            let b = p.ctx.mem.register(800, "tmp");
            if p.policy.data_mode == DataMode::Manual {
                p.ctx.enter_data(b);
            }
            let launches_before = p.ctx.prof.kernel_launches;
            p.wrapper_alloc("tmp_init", b, 100);
            let launched = p.ctx.prof.kernel_launches - launches_before;
            assert_eq!(
                launched,
                u64::from(v == CodeVersion::D2xad),
                "{v:?}: only Code 6 charges the wrapper init kernel"
            );
        }
    }

    #[test]
    fn data_region_registers_and_copies_in_manual_mode() {
        let mut p = par(CodeVersion::Ad);
        let b1 = p.ctx.mem.register(1 << 20, "a");
        let b2 = p.ctx.mem.register(1 << 20, "b");
        let state = p.region_id("state");
        p.data_region(state, &[b1, b2]);
        assert_eq!(p.registry.n_data_arrays(), 2);
        assert!(p.ctx.prof.cat_total_us(gpusim::TimeCategory::MemcpyH2D) > 0.0);
        // Kernel may now touch them.
        p.loop3(&PLAIN2, space(2), Traffic::new(2, 0, 0), &[b1, b2], &[], |_, _, _| {});
    }

    #[test]
    fn um_data_region_registers_but_does_not_copy() {
        let mut p = par(CodeVersion::Adu);
        let b = p.ctx.mem.register(1 << 20, "a");
        let state = p.region_id("state");
        p.data_region(state, &[b]);
        assert_eq!(p.registry.n_data_arrays(), 1);
        assert_eq!(p.ctx.prof.cat_total_us(gpusim::TimeCategory::MemcpyH2D), 0.0);
        // First kernel touch pages it in instead.
        p.loop3(&PLAIN, space(2), Traffic::new(1, 0, 0), &[b], &[], |_, _, _| {});
        assert!(p.ctx.prof.cat_total_us(gpusim::TimeCategory::PageMigration) > 0.0);
    }

    #[test]
    fn with_scales_restores_on_exit() {
        let mut p = par(CodeVersion::A);
        assert_eq!(p.scales(), CostScales::IDENTITY);
        let inner = p.with_scales(CostScales::new(8.0, 2.0), |p| {
            assert_eq!(p.point_scale(), 8.0);
            p.with_area_scale(|p| p.point_scale())
        });
        assert_eq!(inner, 2.0);
        assert_eq!(p.point_scale(), 1.0, "scales cannot leak out of the scope");
        assert_eq!(p.scales(), CostScales::IDENTITY);
    }

    #[test]
    fn builder_scales_set_initial_point_scale() {
        let mut spec = DeviceSpec::a100_40gb();
        spec.jitter_sigma = 0.0;
        let p = Par::builder(spec).scales(CostScales::new(64.0, 16.0)).build();
        assert_eq!(p.point_scale(), 64.0);
        assert_eq!(p.scales().area, 16.0);
    }

    /// The tentpole determinism guarantee at unit scope: every kernel
    /// form produces bit-identical results for any engine width.
    #[test]
    fn results_bitwise_identical_across_thread_counts() {
        let run = |threads: usize| {
            let mut p = par_threads(CodeVersion::Ad2xu, threads);
            let b = p.ctx.mem.register(8 * 4096, "x");
            let o = p.ctx.mem.register(8 * 16, "o");
            p.ctx.enter_data(b);
            p.ctx.enter_data(o);
            let n = 16;
            let sum = p.reduce_scalar(
                &RED,
                space(n),
                Traffic::new(1, 0, 1),
                &[b],
                ReduceOp::Sum,
                0.25,
                |i, j, k| 1.0 / (1.0 + (i + 3 * j + 7 * k) as f64),
            );
            let mut out = vec![0.0; n];
            p.reduce_array(
                &ARED,
                space(n),
                Traffic::new(2, 1, 2),
                &[b],
                &[o],
                &mut out,
                |i, j, k| (i, ((j * 31 + k) as f64).sin()),
            );
            (sum.to_bits(), out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), p.ctx.clock.now_us().to_bits())
        };
        let serial = run(1);
        for threads in [2, 4, 7] {
            assert_eq!(run(threads), serial, "threads={threads}");
        }
    }

    #[test]
    fn serial_site_runs_in_order_even_on_wide_engines() {
        // A sweep body whose result depends on execution order: running
        // it tiled would corrupt it; the Serial tiling must preserve the
        // exact Fortran-order fold.
        let run = |threads: usize| {
            let mut p = par_threads(CodeVersion::D2xu, threads);
            let b = p.ctx.mem.register(8 * 4096, "x");
            p.ctx.enter_data(b);
            p.reduce_scalar(
                &SWEEP_RED,
                space(16),
                Traffic::new(1, 0, 1),
                &[b],
                ReduceOp::Sum,
                0.0,
                |i, j, k| ((i + 2 * j + 3 * k) as f64).sqrt(),
            )
        };
        static SWEEP_RED: Site = Site::new("sweep_red", LoopClass::ScalarReduction, 3).serial();
        assert_eq!(run(1).to_bits(), run(8).to_bits());
        // And loop3 on a serial site still covers every point.
        let mut p = par_threads(CodeVersion::A, 8);
        let b = p.ctx.mem.register(8 * 64, "x");
        p.ctx.enter_data(b);
        let count = AtomicUsize::new(0);
        p.loop3(&SWEEP, space(4), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.into_inner(), 64);
    }

    #[test]
    fn plan_cache_hits_on_steady_state_relaunch() {
        let mut p = par(CodeVersion::A);
        let b = p.ctx.mem.register(8 * 64, "x");
        p.ctx.enter_data(b);
        for _ in 0..3 {
            p.loop3(&PLAIN, space(4), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        }
        assert_eq!(p.plans.len(), 1, "one cached plan");
        assert_eq!(p.registry.total_invocations(), 3);
        // A different space on the same site revalidates but keeps one entry.
        p.loop3(&PLAIN, space(3), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        assert_eq!(p.plans.len(), 1);
        assert_eq!(p.registry.total_invocations(), 4);
    }

    /// Single-tile (nk == 1) spaces take the serial fast path in every
    /// kernel form — no engine dispatch, no host-tile census — while
    /// nk > 1 spaces are always counted.
    #[test]
    fn single_tile_spaces_take_serial_path_with_no_census() {
        let thin = IndexSpace3 {
            i0: 0,
            i1: 8,
            j0: 0,
            j1: 8,
            k0: 3,
            k1: 4,
        };
        let mut p = par_threads(CodeVersion::D2xu, 4);
        let b = p.ctx.mem.register(8 * 64, "x");
        let o = p.ctx.mem.register(8 * 8, "o");
        p.ctx.enter_data(b);
        p.ctx.enter_data(o);
        p.loop3(&PLAIN, thin, Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        let s = p.reduce_scalar(
            &RED,
            thin,
            Traffic::new(1, 0, 1),
            &[b],
            ReduceOp::Sum,
            0.0,
            |i, j, k| (i + j + k) as f64,
        );
        assert_eq!(s, (0..8).flat_map(|j| (0..8).map(move |i| i + j + 3)).sum::<usize>() as f64);
        let mut out = vec![0.0; 8];
        p.reduce_array(
            &ARED,
            thin,
            Traffic::new(2, 1, 2),
            &[b],
            &[o],
            &mut out,
            |i, _, _| (i, 1.0),
        );
        assert_eq!(out, vec![8.0; 8]);
        assert_eq!(p.ctx.prof.host_tiles, 0, "nk == 1 must not enter the tile census");
        // A taller space is censused in all three forms.
        p.loop3(&PLAIN, space(4), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        assert_eq!(p.ctx.prof.host_tiles, 4);
        p.reduce_scalar(&RED, space(4), Traffic::new(1, 0, 1), &[b], ReduceOp::Sum, 0.0, |_, _, _| 1.0);
        assert_eq!(p.ctx.prof.host_tiles, 8);
        let mut out4 = vec![0.0; 4];
        p.reduce_array(&ARED, space(4), Traffic::new(2, 1, 2), &[b], &[o], &mut out4, |i, _, _| (i, 1.0));
        assert_eq!(p.ctx.prof.host_tiles, 12);
    }

    /// The point forms (`loop3`, `reduce_scalar`) and row bodies that
    /// compute the same per-point expressions yield bit-identical arrays
    /// and reductions, for any thread count and so for any tile size:
    /// the 64x32x48 interior is chunked 12, 6, 3 and 1 planes at a time
    /// at widths 1, 2, 4 and 7.
    #[test]
    fn row_and_point_forms_match_bitwise() {
        use mas_field::Array3;
        static FILL_S: Site = Site::par3("row_vs_scalar_fill_s");
        static FILL_R: Site = Site::par3("row_vs_scalar_fill_r");
        static RED_S: Site = Site::new("row_vs_scalar_red_s", LoopClass::ScalarReduction, 3);
        static RED_R: Site = Site::new("row_vs_scalar_red_r", LoopClass::ScalarReduction, 3);

        let run = |threads: usize, rows: bool| {
            let mut p = par_threads(CodeVersion::D2xu, threads);
            let b = p.ctx.mem.register(8 * 8192, "x");
            p.ctx.enter_data(b);
            let mut a = Array3::zeros(66, 34, 50);
            let sp = IndexSpace3 {
                i0: 1,
                i1: a.s1 - 1,
                j0: 1,
                j1: a.s2 - 1,
                k0: 1,
                k1: a.s3 - 1,
            };
            let point = |i: usize, j: usize, k: usize| {
                (1.0 + (i + 3 * j + 7 * k) as f64).sqrt().sin()
            };
            let (sum, tiles) = {
                let v = a.par_view();
                if rows {
                    p.loop3_rows(&FILL_R, sp, Traffic::new(1, 1, 2), &[b], &[b], |j, k| {
                        let row = v.row_mut(sp.i0, sp.i1, j, k);
                        for (t, x) in row.iter_mut().enumerate() {
                            *x = point(sp.i0 + t, j, k);
                        }
                    });
                    let s = p.reduce_scalar_rows(
                        &RED_R,
                        sp,
                        Traffic::new(1, 0, 1),
                        &[b],
                        ReduceOp::Sum,
                        0.25,
                        |acc, j, k| {
                            v.row(sp.i0, sp.i1, j, k)
                                .iter()
                                .fold(acc, |a, &x| a + x * x)
                        },
                    );
                    (s, p.ctx.prof.host_tiles)
                } else {
                    p.loop3(&FILL_S, sp, Traffic::new(1, 1, 2), &[b], &[b], |i, j, k| {
                        v.set(i, j, k, point(i, j, k));
                    });
                    let s = p.reduce_scalar(
                        &RED_S,
                        sp,
                        Traffic::new(1, 0, 1),
                        &[b],
                        ReduceOp::Sum,
                        0.25,
                        |i, j, k| {
                            let x = v.get(i, j, k);
                            x * x
                        },
                    );
                    (s, p.ctx.prof.host_tiles)
                }
            };
            let hash = a
                .as_slice()
                .iter()
                .fold(0u64, |h, x| h.rotate_left(7) ^ x.to_bits());
            let chunk: Vec<usize> = p.tile_plans().iter().map(|&(_, _, k)| k).collect();
            ((hash, sum.to_bits(), tiles), chunk)
        };

        let (reference, _) = run(1, false);
        for (threads, tile_k) in [(1usize, 12usize), (2, 6), (4, 3), (7, 1)] {
            for rows in [false, true] {
                let (got, chunk) = run(threads, rows);
                assert_eq!(got, reference, "t={threads} rows={rows}");
                assert_eq!(chunk, vec![tile_k; 2], "t={threads} rows={rows}");
            }
        }
    }

    /// The fused-launch forms book on the model exactly what the separate
    /// calls book — clock bits (jitter on), launch and byte counts, every
    /// per-site registry row — and compute the same array and reduction
    /// bits, at every engine width, on tiled and single-plane spaces,
    /// with the race auditor off and on. The plane form's body really
    /// carries: it hands each plane's `cos(x)` to the next plane through
    /// its chunk's scratch instead of recomputing it from `x` at `k - 1`,
    /// and `x` changes between sweeps, so a carry that leaked across
    /// chunks or calls would change the bits. Only the host-tile census
    /// differs from the separate calls: it counts the one sweep.
    #[test]
    fn fused_sweep_matches_separate_launches() {
        use mas_field::Array3;
        static FILL: Site = Site::par3("fused_fill");
        static DOT: Site = Site::new("fused_dot", LoopClass::ScalarReduction, 3).heavy();

        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Form {
            Separate,
            Rows,
            Planes,
        }

        let run = |v: CodeVersion, threads: usize, nk: usize, audit: bool, form: Form| {
            let mut p = Par::builder(DeviceSpec::a100_40gb())
                .version(v)
                .threads(threads)
                .seed(7)
                .audit(audit)
                .build();
            p.ctx.set_phase(gpusim::Phase::Compute);
            let mut x = Array3::zeros(42, 36, 14);
            let mut y = Array3::zeros(42, 36, 14);
            let bx = p.ctx.mem.register(x.bytes(), "x");
            let by = p.ctx.mem.register(y.bytes(), "y");
            if p.policy.data_mode == DataMode::Manual {
                p.ctx.enter_data(bx);
                p.ctx.enter_data(by);
            }
            for (n, e) in x.as_mut_slice().iter_mut().enumerate() {
                *e = (n as f64 * 0.37).cos();
            }
            let sp = IndexSpace3 {
                i0: 1,
                i1: 41,
                j0: 1,
                j1: 35,
                k0: 1,
                k1: 1 + nk,
            };
            assert!(nk == 1 || auto_tile_k(sp, threads) < nk, "several chunks");
            let w = sp.i1 - sp.i0;
            let (fill, dot) = (Traffic::new(1, 1, 4), Traffic::new(2, 0, 2));
            let (xs, ys, xys) = ([bx], [by], [bx, by]);
            let mut sums = Vec::new();
            for sweep in 0..3 {
                let yv = y.par_view();
                let xv = &x;
                let fill_row = |j: usize, k: usize| {
                    let xr = xv.row(sp.i0, sp.i1, j, k);
                    let below = xv.row(sp.i0, sp.i1, j, k - 1);
                    let out = yv.row_mut(sp.i0, sp.i1, j, k);
                    for n in 0..out.len() {
                        out[n] = (1.5 * xr[n]).sin() / (2.0 + below[n].cos());
                    }
                    out
                };
                let dot_row = |mut acc: f64, xr: &[f64], yr: &[f64]| {
                    for n in 0..xr.len() {
                        acc += xr[n] * yr[n];
                    }
                    acc
                };
                let launches = [
                    Launch::rows(&FILL, fill, &xs, &ys),
                    Launch::reduce(&DOT, dot, &xys),
                ];
                let s = match form {
                    Form::Separate => {
                        p.loop3_rows(&FILL, sp, fill, &xs, &ys, |j, k| {
                            fill_row(j, k);
                        });
                        p.reduce_scalar_rows(&DOT, sp, dot, &xys, ReduceOp::Sum, 0.25, |acc, j, k| {
                            dot_row(acc, xv.row(sp.i0, sp.i1, j, k), yv.row(sp.i0, sp.i1, j, k))
                        })
                    }
                    Form::Rows => p.fused_rows(sp, &launches, ReduceOp::Sum, 0.25, |acc, j, k| {
                        let out = fill_row(j, k);
                        dot_row(acc, xv.row(sp.i0, sp.i1, j, k), out)
                    }),
                    Form::Planes => {
                        let carry_len = w * (sp.j1 - sp.j0);
                        p.fused_planes(sp, &launches, ReduceOp::Sum, 0.25, carry_len, |mut acc, k, carry, first| {
                            assert_eq!(carry.len(), carry_len);
                            for (n_j, j) in (sp.j0..sp.j1).enumerate() {
                                let cos_below = &mut carry[n_j * w..(n_j + 1) * w];
                                if first {
                                    let below = xv.row(sp.i0, sp.i1, j, k - 1);
                                    for n in 0..w {
                                        cos_below[n] = below[n].cos();
                                    }
                                }
                                let xr = xv.row(sp.i0, sp.i1, j, k);
                                let out = yv.row_mut(sp.i0, sp.i1, j, k);
                                for n in 0..w {
                                    out[n] = (1.5 * xr[n]).sin() / (2.0 + cos_below[n]);
                                    cos_below[n] = xr[n].cos();
                                }
                                acc = dot_row(acc, xr, out);
                            }
                            acc
                        })
                    }
                };
                sums.push(s.to_bits());
                for e in x.as_mut_slice() {
                    *e = (*e * 1.3 + sweep as f64).sin();
                }
            }
            assert!(p.race_audit().is_clean(), "{:?}", p.race_audit().violations);
            assert_eq!(p.race_audit().launches_audited > 0, audit && nk > 1);
            let hash = y
                .as_slice()
                .iter()
                .fold(0u64, |h, e| h.rotate_left(7) ^ e.to_bits());
            let sites: Vec<_> = p
                .registry
                .sites()
                .map(|s| (s.site.name, s.invocations, s.points, s.model_us.to_bits()))
                .collect();
            let model = (
                p.ctx.clock.now_us().to_bits(),
                p.ctx.prof.kernel_launches,
                p.ctx.prof.kernel_bytes.to_bits(),
                sites,
            );
            ((sums, hash, model), p.ctx.prof.host_tiles)
        };

        // 40x34 planes: every width cuts the 12 planes into several
        // chunks (of 3, 2 and 2 planes at 1, 2 and 4 threads), and the
        // wider engines dispatch them in parallel.
        for v in [CodeVersion::A, CodeVersion::D2xu] {
            for nk in [1, 12] {
                let (reference, tiles) = run(v, 1, nk, false, Form::Separate);
                assert_eq!(tiles, if nk > 1 { 2 * 3 * nk as u64 } else { 0 });
                for threads in [1, 2, 4] {
                    for audit in [false, true] {
                        for form in [Form::Separate, Form::Rows, Form::Planes] {
                            let (got, got_tiles) = run(v, threads, nk, audit, form);
                            let at = format!("{v:?} {form:?} t={threads} nk={nk} audit={audit}");
                            assert_eq!(got, reference, "{at}");
                            let want_tiles = if form == Form::Separate { tiles } else { tiles / 2 };
                            assert_eq!(got_tiles, want_tiles, "{at}: the census counts one sweep per pair");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tile_plans_are_learned_and_cached() {
        let mut p = par_threads(CodeVersion::D2xu, 4);
        let b = p.ctx.mem.register(8 * 8192, "x");
        p.ctx.enter_data(b);
        p.loop3(&PLAIN, space(8), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        let plans = p.tile_plans();
        assert_eq!(plans.len(), 1);
        let (name, nk, tile_k) = plans[0];
        assert_eq!(name, "plain");
        assert_eq!(nk, 8);
        // 8x8 planes = 64 points; the adaptive plan groups planes toward
        // TILE_TARGET_POINTS, clamped to nk.
        assert_eq!(tile_k, auto_tile_k(space(8), 4));
        assert!(tile_k > 1, "small planes must be grouped");
        // Single-plane spaces never dispatch and are not reported.
        let thin = IndexSpace3 { i0: 0, i1: 8, j0: 0, j1: 8, k0: 0, k1: 1 };
        p.loop3(&RED0, thin, Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        assert_eq!(p.tile_plans().len(), 1);
        static RED0: Site = Site::par3("thin_site");
    }

    #[test]
    fn auto_tile_k_scales_with_plane_size_and_width() {
        let sp = |ni: usize, nk: usize| IndexSpace3 {
            i0: 0,
            i1: ni,
            j0: 0,
            j1: ni,
            k0: 0,
            k1: nk,
        };
        // Tiny planes: group many planes per chunk.
        assert!(auto_tile_k(sp(8, 64), 4) >= 16);
        // Huge planes: one plane is already plenty of work.
        assert_eq!(auto_tile_k(sp(128, 64), 64), 1);
        // Deep k on a narrow engine coarsens for fewer claim hops.
        assert!(auto_tile_k(sp(128, 512), 2) >= 64);
        // Degenerate spaces stay serial.
        assert_eq!(auto_tile_k(sp(8, 1), 4), 1);
    }

    #[test]
    fn audit_off_instruments_nothing() {
        let mut p = par_threads(CodeVersion::Ad, 2);
        let b = p.ctx.mem.register(8 * 4096, "x");
        p.ctx.enter_data(b);
        p.loop3(&PLAIN, space(8), Traffic::new(1, 1, 0), &[b], &[b], |_, _, _| {});
        let a = p.race_audit();
        assert!(!a.enabled);
        assert_eq!(a.launches_audited, 0);
        assert!(a.is_clean());
    }

    #[test]
    fn audit_mode_flags_a_cross_tile_read() {
        use mas_field::Array3;
        static SHIFT: Site = Site::par3("shift_k_read");
        static OWN: Site = Site::par3("own_point_only");

        let run = |audit: bool| {
            let mut spec = DeviceSpec::a100_40gb();
            spec.jitter_sigma = 0.0;
            let mut p = Par::builder(spec)
                .version(CodeVersion::D2xu)
                .threads(2)
                .audit(audit)
                .build();
            p.ctx.set_phase(gpusim::Phase::Compute);
            let b = p.ctx.mem.register(8 * 1000, "x");
            p.ctx.enter_data(b);
            let mut a = Array3::zeros(6, 6, 6);
            let sp = IndexSpace3 {
                i0: 0,
                i1: a.s1,
                j0: 0,
                j1: a.s2,
                k0: 0,
                k1: a.s3,
            };
            {
                let v = a.par_view();
                // Legal: each iteration writes only its own point.
                p.loop3(&OWN, sp, Traffic::new(1, 1, 0), &[b], &[b], |i, j, k| {
                    v.set(i, j, k, (i + j + k) as f64);
                });
                // Illegal: reads the written array at k-1 (a recurrence
                // mistakenly declared Tiling::Outer).
                let sp1 = IndexSpace3 { k0: 1, ..sp };
                p.loop3(&SHIFT, sp1, Traffic::new(2, 1, 0), &[b], &[b], |i, j, k| {
                    let up = v.get(i, j, k - 1);
                    v.set(i, j, k, up + 1.0);
                });
            }
            p.race_audit().clone()
        };

        let a_off = run(false);
        assert_eq!(a_off.launches_audited, 0);
        let a_on = run(true);
        assert!(a_on.enabled);
        assert_eq!(a_on.launches_audited, 2, "both tiled launches audited");
        assert!(
            a_on.violations.iter().all(|v| v.site == "shift_k_read"),
            "only the recurrence site is flagged"
        );
        assert!(!a_on.is_clean());
        assert!(a_on
            .violations
            .iter()
            .any(|v| v.kind == crate::race::RaceKind::ReadWrite));
        let report = a_on.report();
        assert!(report.contains("shift_k_read"));
        assert!(report.contains("Site::serial"));
    }

    /// Audit-on and audit-off runs are bit-identical on contract-clean
    /// sites: the audited pass executes the very same body once per
    /// point and keeps the engine's tile-order partial combine.
    #[test]
    fn audit_mode_is_bit_identical_on_clean_sites() {
        use mas_field::Array3;
        static FILL: Site = Site::par3("audit_fill");
        static FILL_RED: Site = Site::new("audit_fill_red", LoopClass::ScalarReduction, 3);

        let run = |audit: bool| {
            let mut spec = DeviceSpec::a100_40gb();
            spec.jitter_sigma = 0.0;
            let mut p = Par::builder(spec)
                .version(CodeVersion::Ad2xu)
                .threads(4)
                .audit(audit)
                .build();
            p.ctx.set_phase(gpusim::Phase::Compute);
            let b = p.ctx.mem.register(8 * 8192, "x");
            p.ctx.enter_data(b);
            let mut a = Array3::zeros(16, 16, 16);
            let sp = IndexSpace3 {
                i0: 0,
                i1: a.s1,
                j0: 0,
                j1: a.s2,
                k0: 0,
                k1: a.s3,
            };
            {
                let v = a.par_view();
                p.loop3(&FILL, sp, Traffic::new(1, 1, 0), &[b], &[b], |i, j, k| {
                    v.set(i, j, k, 1.0 / (1.0 + (i + 3 * j + 7 * k) as f64));
                });
            }
            let s = p.reduce_scalar(
                &FILL_RED,
                sp,
                Traffic::new(1, 0, 1),
                &[b],
                ReduceOp::Sum,
                0.25,
                |i, j, k| a.get(i, j, k).sin(),
            );
            let hash = a
                .as_slice()
                .iter()
                .fold(0u64, |h, x| h.rotate_left(7) ^ x.to_bits());
            (hash, s.to_bits(), p.ctx.prof.host_tiles)
        };
        assert_eq!(run(false), run(true));
    }
}
