//! Kernel-site metadata and the runtime registry behind the directive audit.
//!
//! Every loop nest in the solver is declared once as a `static` [`Site`]
//! carrying the information the porting rules need: its class (plain
//! parallel, scalar/array reduction, atomic, routine-calling, or a
//! `kernels` intrinsic region), its nest depth (a collapsed 3-deep
//! OpenACC loop that becomes one `do concurrent` line saves `do`/`enddo`
//! lines — the effect visible in Table I's *Total Lines* column), and the
//! device routines it calls.
//!
//! The [`SiteRegistry`] records which sites actually executed, plus the
//! data regions, `update` call sites, and host-visible structures the
//! solver registered — everything `audit` needs to regenerate the paper's
//! directive censuses.

use std::collections::BTreeMap;

/// How the host execution engine may decompose a site's iteration space
/// (see `stdpar::engine`).
///
/// The decomposition is a property of the *loop body's dependence
/// structure*, not of the machine: a body that reads, at neighbouring
/// `k`, an array it also writes (a φ-sweep, a recurrence) is not
/// `do concurrent`-legal over k-tiles and must run serially. The audit
/// classes are unaffected — this is purely a host-execution attribute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Tiling {
    /// Tile over the outermost (k/φ) axis; tiles may run concurrently.
    /// Legal when every iteration writes only its own points and reads
    /// the written arrays only at `k`-offsets of zero.
    #[default]
    Outer,
    /// Sweep-dependent body: iterations must run in Fortran order on one
    /// thread (the escape hatch for STS/PCG-style recurrences).
    Serial,
}

impl Tiling {
    /// Whether tiles of this site may run concurrently — equivalently,
    /// whether the site claims the `do concurrent` iteration-independence
    /// contract and is therefore subject to the dynamic race audit
    /// (`stdpar::race`).
    pub const fn is_concurrent(self) -> bool {
        matches!(self, Tiling::Outer)
    }
}

/// Interned handle for a directive *call-site label* (`update`, `wait`):
/// the typed replacement for threading `&'static str` labels through the
/// executor API. Obtained from [`SiteRegistry::site_id`]; the string
/// survives only in audit/census output (see [`SiteRegistry::site_label`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(u32);

/// Interned handle for a *data-region label* (`enter data`/`exit data`
/// pairs). Obtained from [`SiteRegistry::region_id`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(u32);

/// Classification of a loop nest — decides which versions can express it
/// as `do concurrent` (paper §IV).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LoopClass {
    /// Data-parallel loop with no reduction/atomic/call: DC-compatible
    /// from Code 2 (AD) on.
    Parallel,
    /// Scalar reduction (CFL minima, dot products): needs the Fortran 202X
    /// `reduce` clause → OpenACC until Code 4 (AD2XU).
    ScalarReduction,
    /// Array reduction (`sum0(i) += …` over `j`): atomics until Code 5's
    /// loop-flip rewrite.
    ArrayReduction,
    /// Non-reduction atomic scatter.
    AtomicUpdate,
    /// Calls a pure device function/subroutine (`!$acc routine` until
    /// inlining removes the need).
    CallsRoutine,
    /// OpenACC `kernels` region wrapping array syntax / intrinsics
    /// (`MINVAL` etc.); expanded into explicit DC loops in Codes 5–6.
    KernelsIntrinsic,
}

impl LoopClass {
    /// All classes, for table iteration.
    pub const ALL: [LoopClass; 6] = [
        LoopClass::Parallel,
        LoopClass::ScalarReduction,
        LoopClass::ArrayReduction,
        LoopClass::AtomicUpdate,
        LoopClass::CallsRoutine,
        LoopClass::KernelsIntrinsic,
    ];
}

/// Static description of one loop nest in the solver.
#[derive(Clone, Copy, Debug)]
pub struct Site {
    /// Unique kernel name (profiler label).
    pub name: &'static str,
    /// Loop classification.
    pub class: LoopClass,
    /// Nest depth of the original `do` loops (1–3).
    pub nest: u8,
    /// Long clause list (reductions over several scalars, many privates):
    /// costs an `!$acc&` continuation line in the OpenACC form.
    pub clause_heavy: bool,
    /// Pure device routines called from the body (empty unless
    /// `class == CallsRoutine`).
    pub routines: &'static [&'static str],
    /// How the host engine may decompose the iteration space.
    pub tiling: Tiling,
}

impl Site {
    /// Shorthand for a plain 3-deep parallel site.
    pub const fn par3(name: &'static str) -> Self {
        Self {
            name,
            class: LoopClass::Parallel,
            nest: 3,
            clause_heavy: false,
            routines: &[],
            tiling: Tiling::Outer,
        }
    }

    /// Shorthand constructor.
    pub const fn new(name: &'static str, class: LoopClass, nest: u8) -> Self {
        Self {
            name,
            class,
            nest,
            clause_heavy: false,
            routines: &[],
            tiling: Tiling::Outer,
        }
    }

    /// Builder: mark the clause list long.
    pub const fn heavy(mut self) -> Self {
        self.clause_heavy = true;
        self
    }

    /// Builder: attach device routines.
    pub const fn with_routines(mut self, r: &'static [&'static str]) -> Self {
        self.routines = r;
        self
    }

    /// Builder: mark the body sweep-dependent — the host engine must not
    /// tile it (reads of the written array at `k ± 1`, recurrences).
    pub const fn serial(mut self) -> Self {
        self.tiling = Tiling::Serial;
        self
    }
}

/// Execution statistics of one site.
#[derive(Clone, Debug)]
pub struct SiteStats {
    /// The site's static metadata.
    pub site: Site,
    /// Number of launches.
    pub invocations: u64,
    /// Total points iterated.
    pub points: u64,
    /// Total modeled execution time, µs (excludes launch overheads).
    pub model_us: f64,
}

/// Everything the audit needs, collected while the solver runs.
#[derive(Clone, Debug, Default)]
pub struct SiteRegistry {
    /// Name → slot into `stats` (BTreeMap for deterministic report
    /// ordering; the hot path goes through the slot, not the map — see
    /// [`SiteRegistry::slot_of`]).
    sites_by_name: BTreeMap<&'static str, usize>,
    /// Per-site statistics, indexed by slot.
    stats: Vec<SiteStats>,
    /// Interned directive call-site labels, indexed by [`SiteId`].
    call_site_labels: Vec<&'static str>,
    /// Data regions: `(label, number of arrays)` — each array in a manual
    /// region costs `enter`+`exit` directive lines. Indexed by [`RegionId`].
    data_regions: Vec<(&'static str, usize)>,
    /// `!$acc update host/device` call sites (by label, deduplicated).
    update_sites: BTreeMap<&'static str, u64>,
    /// Host↔device visible derived-type structures (need `enter data` even
    /// under UM because the structure itself is static — paper §IV-C).
    derived_type_structs: Vec<&'static str>,
    /// `declare` directives for module data used inside device routines.
    declare_sites: Vec<&'static str>,
    /// Sites that issue an `!$acc wait` (async flush points).
    wait_sites: BTreeMap<&'static str, u64>,
    /// MPI send/recv buffers exposed with `host_data use_device`.
    host_data_sites: Vec<&'static str>,
}

impl SiteRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `site`, returning its stable slot. The executor's plan
    /// cache stores this so steady-state steps charge statistics without
    /// re-walking the name map.
    pub fn slot_of(&mut self, site: &Site) -> usize {
        if let Some(&slot) = self.sites_by_name.get(site.name) {
            return slot;
        }
        let slot = self.stats.len();
        self.stats.push(SiteStats {
            site: *site,
            invocations: 0,
            points: 0,
            model_us: 0.0,
        });
        self.sites_by_name.insert(site.name, slot);
        slot
    }

    /// Record one execution of `site` over `points` points taking
    /// `model_us` of modeled kernel time.
    pub fn note(&mut self, site: &Site, points: usize, model_us: f64) {
        let slot = self.slot_of(site);
        self.note_slot(slot, points, model_us);
    }

    /// O(1) variant of [`SiteRegistry::note`] for a pre-interned slot.
    pub fn note_slot(&mut self, slot: usize, points: usize, model_us: f64) {
        let e = &mut self.stats[slot];
        e.invocations += 1;
        e.points += points as u64;
        e.model_us += model_us;
    }

    /// Sites sorted by descending modeled time (the `nsys stats`-style
    /// kernel census).
    pub fn top_sites(&self) -> Vec<&SiteStats> {
        let mut v: Vec<&SiteStats> = self.stats.iter().collect();
        v.sort_by(|a, b| b.model_us.total_cmp(&a.model_us));
        v
    }

    /// Total modeled kernel time, µs.
    pub fn total_model_us(&self) -> f64 {
        self.stats.iter().map(|s| s.model_us).sum()
    }

    /// Intern a directive call-site label (for `update`/`wait` handles).
    /// Idempotent: the same label always yields the same [`SiteId`].
    pub fn site_id(&mut self, label: &'static str) -> SiteId {
        if let Some(i) = self.call_site_labels.iter().position(|&l| l == label) {
            return SiteId(i as u32);
        }
        self.call_site_labels.push(label);
        SiteId((self.call_site_labels.len() - 1) as u32)
    }

    /// The audit-facing string behind a [`SiteId`].
    pub fn site_label(&self, id: SiteId) -> &'static str {
        self.call_site_labels[id.0 as usize]
    }

    /// Intern a data-region label. Idempotent; the array count is filled
    /// in by the first [`SiteRegistry::note_data_region`].
    pub fn region_id(&mut self, label: &'static str) -> RegionId {
        if let Some(i) = self.data_regions.iter().position(|&(l, _)| l == label) {
            return RegionId(i as u32);
        }
        self.data_regions.push((label, 0));
        RegionId((self.data_regions.len() - 1) as u32)
    }

    /// Register a manual data region of `n_arrays` arrays (first
    /// registration wins, matching `enter data` create-once semantics).
    pub fn note_data_region(&mut self, region: RegionId, n_arrays: usize) {
        let e = &mut self.data_regions[region.0 as usize];
        if e.1 == 0 {
            e.1 = n_arrays;
        }
    }

    /// Register an `update` call site.
    pub fn note_update(&mut self, at: SiteId) {
        let label = self.call_site_labels[at.0 as usize];
        *self.update_sites.entry(label).or_insert(0) += 1;
    }

    /// Register a derived-type structure that must be manually placed on
    /// the device even under UM.
    pub fn note_derived_type(&mut self, label: &'static str) {
        if !self.derived_type_structs.contains(&label) {
            self.derived_type_structs.push(label);
        }
    }

    /// Register a `declare` directive site.
    pub fn note_declare(&mut self, label: &'static str) {
        if !self.declare_sites.contains(&label) {
            self.declare_sites.push(label);
        }
    }

    /// Register an `!$acc wait` flush point.
    pub fn note_wait(&mut self, at: SiteId) {
        let label = self.call_site_labels[at.0 as usize];
        *self.wait_sites.entry(label).or_insert(0) += 1;
    }

    /// Register a `host_data use_device` site (CUDA-aware MPI buffers).
    pub fn note_host_data(&mut self, label: &'static str) {
        if !self.host_data_sites.contains(&label) {
            self.host_data_sites.push(label);
        }
    }

    /// All recorded sites in name order.
    pub fn sites(&self) -> impl Iterator<Item = &SiteStats> {
        self.sites_by_name.values().map(|&slot| &self.stats[slot])
    }

    /// Number of distinct sites.
    pub fn n_sites(&self) -> usize {
        self.stats.len()
    }

    /// Count of sites in a class.
    pub fn count_class(&self, c: LoopClass) -> usize {
        self.stats.iter().filter(|s| s.site.class == c).count()
    }

    /// Unique device routines (from all `CallsRoutine` sites), name-sorted.
    pub fn routines(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self
            .stats
            .iter()
            .flat_map(|s| s.site.routines.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Data regions (label, arrays).
    pub fn data_regions(&self) -> &[(&'static str, usize)] {
        &self.data_regions
    }

    /// Total arrays across manual data regions.
    pub fn n_data_arrays(&self) -> usize {
        self.data_regions.iter().map(|&(_, n)| n).sum()
    }

    /// Unique `update` sites.
    pub fn n_update_sites(&self) -> usize {
        self.update_sites.len()
    }

    /// Derived-type structures.
    pub fn n_derived_types(&self) -> usize {
        self.derived_type_structs.len()
    }

    /// `declare` sites.
    pub fn n_declares(&self) -> usize {
        self.declare_sites.len()
    }

    /// Unique wait sites.
    pub fn n_wait_sites(&self) -> usize {
        self.wait_sites.len()
    }

    /// `host_data` sites.
    pub fn n_host_data_sites(&self) -> usize {
        self.host_data_sites.len()
    }

    /// Total kernel launches recorded.
    pub fn total_invocations(&self) -> u64 {
        self.stats.iter().map(|s| s.invocations).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static S1: Site = Site::par3("k1");
    static S2: Site = Site::new("red", LoopClass::ScalarReduction, 3).heavy();
    static S3: Site = Site::new("interp", LoopClass::CallsRoutine, 3)
        .with_routines(&["interp", "s2c"]);

    #[test]
    fn note_accumulates_stats() {
        let mut r = SiteRegistry::new();
        r.note(&S1, 100, 1.0);
        r.note(&S1, 100, 1.0);
        r.note(&S2, 50, 1.0);
        assert_eq!(r.n_sites(), 2);
        assert_eq!(r.total_invocations(), 3);
        let s = r.sites().find(|s| s.site.name == "k1").unwrap();
        assert_eq!(s.points, 200);
    }

    #[test]
    fn class_counting() {
        let mut r = SiteRegistry::new();
        r.note(&S1, 1, 1.0);
        r.note(&S2, 1, 1.0);
        r.note(&S3, 1, 1.0);
        assert_eq!(r.count_class(LoopClass::Parallel), 1);
        assert_eq!(r.count_class(LoopClass::ScalarReduction), 1);
        assert_eq!(r.count_class(LoopClass::ArrayReduction), 0);
    }

    #[test]
    fn routines_deduplicated_sorted() {
        static S4: Site =
            Site::new("boost", LoopClass::CallsRoutine, 2).with_routines(&["boost", "s2c"]);
        let mut r = SiteRegistry::new();
        r.note(&S3, 1, 1.0);
        r.note(&S4, 1, 1.0);
        assert_eq!(r.routines(), vec!["boost", "interp", "s2c"]);
    }

    #[test]
    fn data_regions_deduplicate_by_label() {
        let mut r = SiteRegistry::new();
        let state = r.region_id("state");
        let state2 = r.region_id("state");
        let aux = r.region_id("aux");
        assert_eq!(state, state2, "interning is idempotent");
        assert_ne!(state, aux);
        r.note_data_region(state, 12);
        r.note_data_region(state2, 12);
        r.note_data_region(aux, 3);
        assert_eq!(r.data_regions().len(), 2);
        assert_eq!(r.n_data_arrays(), 15);
    }

    #[test]
    fn update_and_wait_sites_count_unique_labels() {
        let mut r = SiteRegistry::new();
        let bc = r.site_id("bc_read");
        let diag = r.site_id("diag");
        let pre_mpi = r.site_id("pre_mpi");
        assert_eq!(bc, r.site_id("bc_read"), "interning is idempotent");
        assert_eq!(r.site_label(diag), "diag");
        r.note_update(bc);
        r.note_update(bc);
        r.note_update(diag);
        r.note_wait(pre_mpi);
        assert_eq!(r.n_update_sites(), 2);
        assert_eq!(r.n_wait_sites(), 1);
    }

    #[test]
    fn slot_of_is_stable_and_note_slot_accumulates() {
        let mut r = SiteRegistry::new();
        let a = r.slot_of(&S1);
        let b = r.slot_of(&S2);
        assert_eq!(r.slot_of(&S1), a);
        r.note_slot(a, 10, 1.5);
        r.note_slot(a, 10, 1.5);
        r.note_slot(b, 5, 0.5);
        assert_eq!(r.total_invocations(), 3);
        let s = r.sites().find(|s| s.site.name == "k1").unwrap();
        assert_eq!(s.points, 20);
        assert!((s.model_us - 3.0).abs() < 1e-12);
    }

    #[test]
    fn serial_builder_sets_tiling() {
        const SW: Site = Site::par3("sweep").serial();
        assert_eq!(SW.tiling, Tiling::Serial);
        assert_eq!(S1.tiling, Tiling::Outer);
    }
}
