//! Checkpoint / restart: dump and restore the primary state.
//!
//! Production MAS runs checkpoint regularly (its 48-hour simulations run
//! across many job allocations). The model side is faithful too: saving
//! issues `!$acc update host` for every dumped field (D2H copies under
//! manual memory, page migrations under UM), and restoring issues
//! `update device` — both recorded as update sites in the directive audit.

use crate::sim::Simulation;
use mas_io::{read_fields, validate_dump, write_fields_with_fault, DumpHeader};
use std::io;
use std::path::{Path, PathBuf};

/// Names and order of the checkpointed fields (must stay stable — the
/// reader validates against it).
const FIELDS: [&str; 8] = ["rho", "temp", "v_r", "v_t", "v_p", "b_r", "b_t", "b_p"];

/// Save the primary state of this rank to `path`.
pub fn save(sim: &mut Simulation, path: impl AsRef<Path>) -> io::Result<()> {
    save_with_fault(sim, path, None)
}

/// [`save`] with the fault-injection seam exposed: `fault = Some(kind)`
/// makes the underlying dump write die partway through (leaving a torn
/// `.tmp`, never touching the destination) — the supervisor's
/// `ckpt_fail` fault. Production callers use [`save`].
pub fn save_with_fault(
    sim: &mut Simulation,
    path: impl AsRef<Path>,
    fault: Option<io::ErrorKind>,
) -> io::Result<()> {
    // Bring the fields back to the host (model accounting).
    let bufs = sim.state.state_buf_ids();
    let site = sim.par.site_id("checkpoint_save");
    for &b in &bufs {
        sim.par.update_host(site, b);
        sim.par.host_access(b, false);
    }
    let st = &sim.state;
    let fields: Vec<(&str, &mas_field::Array3)> = FIELDS
        .iter()
        .copied()
        .zip([
            &st.rho.data, &st.temp.data,
            &st.v.r.data, &st.v.t.data, &st.v.p.data,
            &st.b.r.data, &st.b.t.data, &st.b.p.data,
        ])
        .collect();
    write_fields_with_fault(
        path,
        DumpHeader {
            step: sim.step as u64,
            time: sim.time,
            epoch: sim.epoch,
        },
        &fields,
        fault,
    )
}

/// Restore the primary state of this rank from `path`. Returns the dump
/// header. The caller should re-apply boundaries (or just keep stepping —
/// every step begins by using the exchanged ghosts saved in the dump).
pub fn load(sim: &mut Simulation, path: impl AsRef<Path>) -> io::Result<DumpHeader> {
    let header = {
        let st = &mut sim.state;
        let mut fields: Vec<(&str, &mut mas_field::Array3)> = Vec::with_capacity(8);
        let arrays = [
            &mut st.rho.data, &mut st.temp.data,
            &mut st.v.r.data, &mut st.v.t.data, &mut st.v.p.data,
            &mut st.b.r.data, &mut st.b.t.data, &mut st.b.p.data,
        ];
        for (name, a) in FIELDS.iter().copied().zip(arrays) {
            fields.push((name, a));
        }
        read_fields(path, &mut fields)?
    };
    // Host wrote the arrays; push them back to the device (model).
    let bufs = sim.state.state_buf_ids();
    let site = sim.par.site_id("checkpoint_load");
    for &b in &bufs {
        sim.par.host_access(b, true);
        sim.par.update_device(site, b);
    }
    sim.step = header.step as usize;
    sim.time = header.time;
    // The dump holds the post-boundary-exchange state (ghosts included);
    // the run loop must not re-apply boundaries before the next step.
    sim.resumed = true;
    Ok(header)
}

// ---------------------------------------------------------------------------
// Two-slot rotation: latest/previous checkpoint per rank.
// ---------------------------------------------------------------------------

/// Path of rotation slot `slot` (0 = `a`, 1 = `b`) for `rank` in `dir`.
pub fn slot_path(dir: &Path, rank: usize, slot: usize) -> PathBuf {
    dir.join(format!("ckpt_r{}_{}.dump", rank, if slot == 0 { 'a' } else { 'b' }))
}

/// The newest **valid** (CRC-verified) rotation slot for `rank` in `dir`,
/// if any. A torn or corrupted slot is silently skipped — that is the
/// whole point of keeping two.
pub fn latest_valid_slot(dir: &Path, rank: usize) -> Option<(PathBuf, DumpHeader)> {
    let mut best: Option<(PathBuf, DumpHeader)> = None;
    for slot in 0..2 {
        let p = slot_path(dir, rank, slot);
        if let Ok(h) = validate_dump(&p) {
            if best.as_ref().is_none_or(|(_, bh)| h.step > bh.step) {
                best = Some((p, h));
            }
        }
    }
    best
}

/// Alternating latest/previous checkpoint writer for one rank. Each save
/// overwrites the **older** slot (crash-safely, via the dump layer's
/// write-to-temp + fsync + rename), so a valid previous checkpoint always
/// survives a death mid-write.
pub struct Rotation {
    dir: PathBuf,
    rank: usize,
    next: usize,
}

impl Rotation {
    /// Set up the rotation in `dir`, resuming the alternation so the
    /// first save never clobbers the newest valid slot already on disk.
    pub fn new(dir: &Path, rank: usize) -> Self {
        let next = match latest_valid_slot(dir, rank) {
            Some((p, _)) if p == slot_path(dir, rank, 0) => 1,
            _ => 0,
        };
        Self {
            dir: dir.to_path_buf(),
            rank,
            next,
        }
    }

    /// Checkpoint `sim` into the older slot and advance the rotation.
    /// On failure (including an injected `fault`) the slot is untouched
    /// and the rotation does **not** advance. Returns the written path.
    pub fn save(
        &mut self,
        sim: &mut Simulation,
        fault: Option<io::ErrorKind>,
    ) -> io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let path = slot_path(&self.dir, self.rank, self.next);
        save_with_fault(sim, &path, fault)?;
        self.next ^= 1;
        Ok(path)
    }
}

/// A test case's scratch directory under the system temp dir. Its name
/// carries the case and the process id, so two concurrent runs of the
/// suite never share checkpoint slots, and dropping it removes it with
/// everything written there.
#[cfg(test)]
pub(crate) struct Scratch(pub(crate) PathBuf);

#[cfg(test)]
impl Scratch {
    pub(crate) fn new(case: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mas_mhd_{case}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// The directory as deck text (`checkpoint.dir`, `restart_from`).
    pub(crate) fn deck_text(&self) -> String {
        self.0.to_string_lossy().into_owned()
    }
}

#[cfg(test)]
impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mas_config::Deck;
    use minimpi::World;
    use stdpar::CodeVersion;

    fn mk_sim(deck: &Deck, version: CodeVersion) -> Simulation {
        Simulation::builder(deck).version(version).build()
    }

    #[test]
    fn restart_reproduces_uninterrupted_run_bitwise() {
        // Run 6 steps straight vs 3 steps + checkpoint + restore + 3 more
        // steps: the physics must match **bit-for-bit**. The dump stores
        // the post-boundary-exchange state (ghosts included) and a
        // restored run skips the initial boundary application (the polar
        // φ-average is not bitwise idempotent), so the resumed trajectory
        // is byte-identical to the uninterrupted one.
        let mut deck = Deck::preset_quickstart();
        deck.time.n_steps = 6;
        deck.output.hist_interval = 0;
        let scratch = Scratch::new("ckpt_restart");
        let path = scratch.0.join("restart.dump");

        let straight = World::run(1, |comm| {
            let mut sim = mk_sim(&deck, CodeVersion::A);
            sim.run(&comm);
            (sim.time, sim.step, sim.state.content_hash())
        })
        .pop()
        .unwrap();

        let restarted = World::run(1, |comm| {
            let mut d1 = deck.clone();
            d1.time.n_steps = 3;
            let mut sim = mk_sim(&d1, CodeVersion::A);
            sim.run(&comm);
            save(&mut sim, &path).unwrap();
            drop(sim);

            // Fresh simulation object, state restored from disk; n_steps
            // is the TOTAL, so the resumed run takes 3 further steps.
            let mut sim2 = mk_sim(&deck, CodeVersion::A);
            let h = load(&mut sim2, &path).unwrap();
            assert_eq!(h.step, 3);
            assert!(sim2.resumed);
            sim2.run(&comm);
            (sim2.time, sim2.step, sim2.state.content_hash())
        })
        .pop()
        .unwrap();

        assert_eq!(straight.1, 6);
        assert_eq!(restarted.1, 6);
        assert_eq!(
            straight.0.to_bits(),
            restarted.0.to_bits(),
            "time: {} vs {}",
            straight.0,
            restarted.0
        );
        assert_eq!(
            straight.2, restarted.2,
            "state hash must be bit-identical across a restart"
        );
    }

    #[test]
    fn roundtrip_is_bitwise_identical_on_all_six_versions() {
        // The acceptance criterion, per code version: save at mid-run,
        // restore into a fresh simulation, finish — `state_hash` must be
        // bit-for-bit equal to the uninterrupted run. The six versions
        // differ in model accounting (launch counts, page migrations),
        // never in physics bits.
        let mut deck = Deck::preset_quickstart();
        deck.time.n_steps = 4;
        deck.output.hist_interval = 0;
        let scratch = Scratch::new("ckpt_sixway");
        for version in CodeVersion::ALL {
            let path = scratch.0.join(format!("sixway_{version:?}.dump"));
            let straight = World::run(1, |comm| {
                let mut sim = mk_sim(&deck, version);
                sim.run(&comm);
                sim.state.content_hash()
            })
            .pop()
            .unwrap();
            let restarted = World::run(1, |comm| {
                let mut d1 = deck.clone();
                d1.time.n_steps = 2;
                let mut sim = mk_sim(&d1, version);
                sim.run(&comm);
                save(&mut sim, &path).unwrap();
                drop(sim);
                let mut sim2 = mk_sim(&deck, version);
                let h = load(&mut sim2, &path).unwrap();
                assert_eq!(h.step, 2, "{version:?}");
                sim2.run(&comm);
                sim2.state.content_hash()
            })
            .pop()
            .unwrap();
            assert_eq!(
                straight, restarted,
                "{version:?}: restart must reproduce the run bit-for-bit"
            );
        }
    }

    #[test]
    fn rotation_alternates_and_survives_torn_slot() {
        let scratch = Scratch::new("ckpt_rotation");
        let dir = scratch.0.join("rotdir");
        let deck = Deck::preset_quickstart();
        World::run(1, |comm| {
            let mut sim = mk_sim(&deck, CodeVersion::A);
            sim.begin_compute(&comm);
            let mut rot = Rotation::new(&dir, 0);
            // Three saves alternate a, b, a.
            crate::step::advance(&mut sim, &comm);
            let p1 = rot.save(&mut sim, None).unwrap();
            crate::step::advance(&mut sim, &comm);
            let p2 = rot.save(&mut sim, None).unwrap();
            crate::step::advance(&mut sim, &comm);
            let p3 = rot.save(&mut sim, None).unwrap();
            assert_eq!(p1, slot_path(&dir, 0, 0));
            assert_eq!(p2, slot_path(&dir, 0, 1));
            assert_eq!(p3, slot_path(&dir, 0, 0));
            let (best, h) = latest_valid_slot(&dir, 0).unwrap();
            assert_eq!(best, p3);
            assert_eq!(h.step, 3);
            // Corrupt the newest slot (death mid-write of the *next*
            // overwrite can't do this, but bit rot can): the previous
            // slot must take over.
            let mut bytes = std::fs::read(&p3).unwrap();
            let n = bytes.len();
            bytes[n - 10] ^= 0xff;
            std::fs::write(&p3, &bytes).unwrap();
            let (best, h) = latest_valid_slot(&dir, 0).unwrap();
            assert_eq!(best, p2);
            assert_eq!(h.step, 2);
            // A fresh Rotation resumes without clobbering the survivor.
            let mut rot2 = Rotation::new(&dir, 0);
            let p4 = rot2.save(&mut sim, None).unwrap();
            assert_eq!(p4, slot_path(&dir, 0, 0), "must overwrite the corrupt slot");
            // Injected write failure: slot untouched, rotation holds.
            let before = std::fs::read(&p2).unwrap();
            let err = rot2.save(&mut sim, Some(std::io::ErrorKind::Other)).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::Other);
            assert_eq!(std::fs::read(&p2).unwrap(), before, "failed save must not touch the slot");
            let p5 = rot2.save(&mut sim, None).unwrap();
            assert_eq!(p5, slot_path(&dir, 0, 1), "retry lands on the same slot");
        });
    }

    #[test]
    fn checkpoint_registers_update_sites() {
        let deck = Deck::preset_quickstart();
        let scratch = Scratch::new("ckpt_audit");
        let path = scratch.0.join("audit.dump");
        World::run(1, |comm| {
            let mut sim = mk_sim(&deck, CodeVersion::A);
            sim.run(&comm);
            save(&mut sim, &path).unwrap();
            load(&mut sim, &path).unwrap();
            // Both update directions appear as audit sites.
            assert!(sim.par.registry.n_update_sites() >= 2);
        });
    }

    #[test]
    fn load_rejects_wrong_grid() {
        let deck = Deck::preset_quickstart();
        let scratch = Scratch::new("ckpt_wronggrid");
        let path = scratch.0.join("wronggrid.dump");
        World::run(1, |comm| {
            let mut sim = mk_sim(&deck, CodeVersion::A);
            sim.run(&comm);
            save(&mut sim, &path).unwrap();
        });
        let mut bigger = deck.clone();
        bigger.grid.nr += 4;
        let mut sim2 = mk_sim(&bigger, CodeVersion::A);
        let err = load(&mut sim2, &path).unwrap_err();
        assert!(err.to_string().contains("dims"));
    }

    #[test]
    fn um_checkpoint_pays_page_migrations() {
        let deck = Deck::preset_quickstart();
        let scratch = Scratch::new("ckpt_um");
        let path = scratch.0.join("um.dump");
        World::run(1, |comm| {
            let mut sim = mk_sim(&deck, CodeVersion::Adu);
            sim.run(&comm);
            let before = sim.par.ctx.mem.um_migrated_bytes;
            save(&mut sim, &path).unwrap();
            assert!(
                sim.par.ctx.mem.um_migrated_bytes > before,
                "UM checkpoint must page fields back to the host"
            );
        });
    }
}
