//! Write-ahead journal: the durability layer that makes `mas-serve`
//! crash-only.
//!
//! Every scheduler state transition is appended to `journal.log` in the
//! server's state directory *before* the transition is acknowledged, as
//! a CRC32-framed, fsync'd, epoch-stamped record. On boot,
//! [`crate::Server::recover`] replays the journal: completed results
//! rehydrate the content-addressed cache, jobs that were queued or
//! running re-enter the queue at their original priority, and a torn
//! tail (the record being written when the process died) is truncated,
//! not fatal.
//!
//! ## File layout
//!
//! ```text
//! header  b"MASJRNL\0" + u32 format version (1)
//! record* len u32 | payload | crc32(payload) u32      (little-endian)
//! ```
//!
//! Each payload is `epoch u64 | kind u8 | body…`. The epoch counts
//! server boots over this state directory: replay can tell a `Started`
//! from a previous life (the job was interrupted → re-enqueue) from one
//! written this boot. The framing reuses the `io::dump` hardening
//! idioms wholesale: every length is bounded **before** any allocation,
//! any flipped byte fails the CRC, trailing garbage is rejected — a
//! record is exactly its declared content or it is dropped.
//!
//! ## Torn tails and corruption
//!
//! Replay stops at the first frame that is short, oversized, fails its
//! CRC, or decodes to garbage, and reports the journal's valid prefix
//! plus where (and why) it stopped; [`Journal::open`] then truncates
//! the file to that prefix. A corrupted record is therefore *never
//! resurrected* — and because every record before it was fsync'd in
//! acknowledgement order, the prefix is exactly the state the server
//! had durably promised.
//!
//! ## Compaction
//!
//! The journal grows with every transition, so the server periodically
//! rewrites it as a snapshot of live state (cache entries + one record
//! chain per job) using the same record stream format — a compacted
//! journal *is* a journal. The rewrite goes to a `.compact` sibling,
//! is fsync'd, and atomically renamed over `journal.log` (the `io::dump`
//! crash-safe write pattern), so a crash mid-compaction leaves the old
//! journal authoritative.
//!
//! ## What a persisted result is
//!
//! A [`PersistedReport`] keeps the durable core of a
//! [`MultiRankReport`]: per-rank state hashes, step counts, model
//! timings and kernel censuses — everything result queries and the
//! bit-exactness contract need. Ephemeral diagnostics (history curves,
//! site registries, profiler spans, recovery logs) are deliberately not
//! persisted; a rehydrated report carries empty ones.

use crate::cache::CacheKey;
use crate::job::JobSpec;
use mas_config::Deck;
use mas_io::dump::crc32;
use mas_mhd::{MultiRankReport, RunReport};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 8] = b"MASJRNL\0";
const FORMAT_VERSION: u32 = 1;
const HEADER_LEN: u64 = 12;

/// Hard cap on one record's payload: a corrupt length field can never
/// size a huge allocation. Generous — the largest real record is a
/// `CacheInsert` (deck-free, ~100 bytes per rank) or a `Submitted`
/// carrying one deck text.
pub const MAX_RECORD_LEN: usize = 4 << 20;
/// Hard cap on any embedded string (deck text, tenant, error message).
pub const MAX_STR_LEN: usize = 1 << 20;
/// Hard cap on ranks per persisted report (sanity bound, far above any
/// real fleet here).
pub const MAX_REPORT_RANKS: usize = 65_536;

/// The build that wrote a record's result payload — cache entries from
/// another build are dropped at recovery (stale physics must never be
/// served).
pub const CODE_REV: &str = env!("CARGO_PKG_VERSION");

// ---------------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------------

/// The durable core of one rank's [`RunReport`].
#[derive(Clone, Debug, PartialEq)]
pub struct PersistedRank {
    /// Rank id.
    pub rank: u32,
    /// World size.
    pub n_ranks: u32,
    /// Steps taken.
    pub steps: u64,
    /// Bitwise fingerprint of the final state.
    pub state_hash: u64,
    /// Model wall time, µs.
    pub wall_us: f64,
    /// Model MPI time, µs.
    pub mpi_us: f64,
    /// Model compute time, µs.
    pub compute_us: f64,
    /// Kernel launches.
    pub kernel_launches: u64,
    /// Host-engine tiles dispatched.
    pub host_tiles: u64,
    /// Model bytes moved by kernels.
    pub kernel_bytes: f64,
    /// Final physical time.
    pub time: f64,
}

/// The durable core of a completed job's result.
#[derive(Clone, Debug, PartialEq)]
pub struct PersistedReport {
    /// The code version that ran (tag form, e.g. `"AD2XU"`).
    pub version_tag: String,
    /// Per-rank cores, rank order.
    pub ranks: Vec<PersistedRank>,
}

impl PersistedReport {
    /// Extract the durable core of a full report.
    pub fn from_report(report: &MultiRankReport) -> Self {
        Self {
            version_tag: report
                .ranks
                .first()
                .map(|r| r.version.tag().to_string())
                .unwrap_or_default(),
            ranks: report
                .ranks
                .iter()
                .map(|r| PersistedRank {
                    rank: r.rank as u32,
                    n_ranks: r.n_ranks as u32,
                    steps: r.steps as u64,
                    state_hash: r.state_hash,
                    wall_us: r.wall_us,
                    mpi_us: r.mpi_us,
                    compute_us: r.compute_us,
                    kernel_launches: r.kernel_launches,
                    host_tiles: r.host_tiles,
                    kernel_bytes: r.kernel_bytes,
                    time: r.time,
                })
                .collect(),
        }
    }

    /// Rebuild a full report; ephemeral diagnostics come back empty.
    pub fn to_report(&self) -> Result<MultiRankReport, String> {
        let version = crate::wire::parse_version(&self.version_tag)
            .unwrap_or(stdpar::CodeVersion::A);
        Ok(MultiRankReport {
            ranks: self
                .ranks
                .iter()
                .map(|p| RunReport {
                    version,
                    rank: p.rank as usize,
                    n_ranks: p.n_ranks as usize,
                    steps: p.steps as usize,
                    wall_us: p.wall_us,
                    mpi_us: p.mpi_us,
                    compute_us: p.compute_us,
                    kernel_launches: p.kernel_launches,
                    host_tiles: p.host_tiles,
                    state_hash: p.state_hash,
                    kernel_bytes: p.kernel_bytes,
                    hist: Vec::new(),
                    time: p.time,
                    registry: Default::default(),
                    race_audit: Default::default(),
                    spans: Vec::new(),
                    cat_us: Vec::new(),
                    recovery: Default::default(),
                    tile_plans: Vec::new(),
                })
                .collect(),
        })
    }
}

/// One journaled state transition.
#[derive(Clone, Debug, PartialEq)]
pub enum Record {
    /// A server booted over this state directory (epoch in the frame).
    /// Also what an older build's retired kind-9 frame decodes to: a
    /// record that changes nothing.
    Boot,
    /// A job was accepted. Enough to rebuild its [`JobSpec`] exactly.
    Submitted {
        /// Job id.
        id: u64,
        /// Accounted tenant.
        tenant: String,
        /// Code version tag.
        version_tag: String,
        /// Rank count.
        n_ranks: u32,
        /// RNG seed.
        seed: u64,
        /// Scheduling priority.
        priority: i32,
        /// Canonical deck text.
        deck_text: String,
    },
    /// A worker claimed the job and leased its devices.
    Started {
        /// Job id.
        id: u64,
    },
    /// The job completed. `cached` records whether it was served from
    /// the cache (born terminal) or actually ran.
    Done {
        /// Job id.
        id: u64,
        /// Served from cache?
        cached: bool,
    },
    /// The job failed.
    Failed {
        /// Job id.
        id: u64,
        /// Failure message.
        message: String,
    },
    /// The job was cancelled.
    Cancelled {
        /// Job id.
        id: u64,
        /// Cancellation note.
        message: String,
    },
    /// A result entered the content-addressed cache.
    CacheInsert {
        /// Deck content hash (the cache key's first component).
        deck_hash: u64,
        /// Code version tag.
        version_tag: String,
        /// Build that produced the result.
        code_rev: String,
        /// Rank layout.
        n_ranks: u32,
        /// RNG seed.
        seed: u64,
        /// The durable result core.
        report: PersistedReport,
    },
    /// A cache entry was evicted (capacity bound or TTL).
    Evicted {
        /// Deck content hash.
        deck_hash: u64,
        /// Code version tag.
        version_tag: String,
        /// Build that produced the evicted result.
        code_rev: String,
        /// Rank layout.
        n_ranks: u32,
        /// RNG seed.
        seed: u64,
    },
}

impl Record {
    /// A `Submitted` record for a spec (the deck travels as canonical
    /// text, so replay reconstructs it by content).
    pub fn submitted(id: u64, spec: &JobSpec) -> Self {
        Record::Submitted {
            id,
            tenant: spec.tenant.clone(),
            version_tag: spec.version.tag().to_string(),
            n_ranks: spec.n_ranks as u32,
            seed: spec.seed,
            priority: spec.priority,
            deck_text: spec.deck.to_deck_string(),
        }
    }

    /// A `CacheInsert` record for a key + full report.
    pub fn cache_insert(key: &CacheKey, report: &MultiRankReport) -> Self {
        Record::CacheInsert {
            deck_hash: key.deck_hash,
            version_tag: key.version.tag().to_string(),
            code_rev: key.code_rev.to_string(),
            n_ranks: key.n_ranks as u32,
            seed: key.seed,
            report: PersistedReport::from_report(report),
        }
    }

    /// An `Evicted` record for a key.
    pub fn evicted(key: &CacheKey) -> Self {
        Record::Evicted {
            deck_hash: key.deck_hash,
            version_tag: key.version.tag().to_string(),
            code_rev: key.code_rev.to_string(),
            n_ranks: key.n_ranks as u32,
            seed: key.seed,
        }
    }

    fn kind(&self) -> u8 {
        match self {
            Record::Boot => 0,
            Record::Submitted { .. } => 1,
            Record::Started { .. } => 2,
            Record::Done { .. } => 3,
            Record::Failed { .. } => 4,
            Record::Cancelled { .. } => 5,
            Record::CacheInsert { .. } => 6,
            Record::Evicted { .. } => 7,
        }
    }
}

// ---------------------------------------------------------------------------
// Payload (de)serialization — bounded before any allocation.
// ---------------------------------------------------------------------------

fn w_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn w_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn w_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn w_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn w_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_STR_LEN);
    w_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Cursor over a payload slice; every read is bounds-checked so a
/// corrupt record fails decoding cleanly instead of panicking.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.buf.len() - self.pos < n {
            return Err(format!("record truncated while reading {what}"));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn i32(&mut self, what: &str) -> Result<i32, String> {
        Ok(i32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }
    fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }
    fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }
    fn str(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32(what)? as usize;
        if len > MAX_STR_LEN {
            // Bounded before any allocation.
            return Err(format!("{what} length {len} exceeds {MAX_STR_LEN}"));
        }
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("{what} is not UTF-8"))
    }
    fn done(&self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            // A record is exactly its declared content.
            Err(format!("{} trailing byte(s) after record body", self.buf.len() - self.pos))
        }
    }
}

fn encode_payload(epoch: u64, rec: &Record) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    w_u64(&mut out, epoch);
    out.push(rec.kind());
    match rec {
        Record::Boot => {}
        Record::Submitted {
            id,
            tenant,
            version_tag,
            n_ranks,
            seed,
            priority,
            deck_text,
        } => {
            w_u64(&mut out, *id);
            w_str(&mut out, tenant);
            w_str(&mut out, version_tag);
            w_u32(&mut out, *n_ranks);
            w_u64(&mut out, *seed);
            w_i32(&mut out, *priority);
            w_str(&mut out, deck_text);
        }
        Record::Started { id } => w_u64(&mut out, *id),
        Record::Done { id, cached } => {
            w_u64(&mut out, *id);
            out.push(u8::from(*cached));
        }
        Record::Failed { id, message } | Record::Cancelled { id, message } => {
            w_u64(&mut out, *id);
            w_str(&mut out, message);
        }
        Record::CacheInsert {
            deck_hash,
            version_tag,
            code_rev,
            n_ranks,
            seed,
            report,
        } => {
            w_u64(&mut out, *deck_hash);
            w_str(&mut out, version_tag);
            w_str(&mut out, code_rev);
            w_u32(&mut out, *n_ranks);
            w_u64(&mut out, *seed);
            w_str(&mut out, &report.version_tag);
            w_u32(&mut out, report.ranks.len() as u32);
            for r in &report.ranks {
                w_u32(&mut out, r.rank);
                w_u32(&mut out, r.n_ranks);
                w_u64(&mut out, r.steps);
                w_u64(&mut out, r.state_hash);
                w_f64(&mut out, r.wall_us);
                w_f64(&mut out, r.mpi_us);
                w_f64(&mut out, r.compute_us);
                w_u64(&mut out, r.kernel_launches);
                w_u64(&mut out, r.host_tiles);
                w_f64(&mut out, r.kernel_bytes);
                w_f64(&mut out, r.time);
            }
        }
        Record::Evicted {
            deck_hash,
            version_tag,
            code_rev,
            n_ranks,
            seed,
        } => {
            w_u64(&mut out, *deck_hash);
            w_str(&mut out, version_tag);
            w_str(&mut out, code_rev);
            w_u32(&mut out, *n_ranks);
            w_u64(&mut out, *seed);
        }
    }
    out
}

fn decode_payload(payload: &[u8]) -> Result<(u64, Record), String> {
    let mut c = Cur { buf: payload, pos: 0 };
    let epoch = c.u64("epoch")?;
    let kind = c.u8("record kind")?;
    let rec = match kind {
        0 => Record::Boot,
        1 => Record::Submitted {
            id: c.u64("id")?,
            tenant: c.str("tenant")?,
            version_tag: c.str("version tag")?,
            n_ranks: c.u32("n_ranks")?,
            seed: c.u64("seed")?,
            priority: c.i32("priority")?,
            deck_text: c.str("deck text")?,
        },
        2 => Record::Started { id: c.u64("id")? },
        3 => Record::Done {
            id: c.u64("id")?,
            cached: c.u8("cached flag")? != 0,
        },
        4 => Record::Failed {
            id: c.u64("id")?,
            message: c.str("message")?,
        },
        5 => Record::Cancelled {
            id: c.u64("id")?,
            message: c.str("message")?,
        },
        6 => {
            let deck_hash = c.u64("deck hash")?;
            let version_tag = c.str("version tag")?;
            let code_rev = c.str("code rev")?;
            let n_ranks = c.u32("n_ranks")?;
            let seed = c.u64("seed")?;
            let report_version = c.str("report version tag")?;
            let nr = c.u32("rank count")? as usize;
            if nr > MAX_REPORT_RANKS {
                return Err(format!("rank count {nr} exceeds {MAX_REPORT_RANKS}"));
            }
            // Structural bound: each rank core is a fixed 76 bytes; a
            // corrupt count cannot oversize the Vec beyond the already
            // length-capped payload.
            if nr * 76 > payload.len() {
                return Err(format!("rank count {nr} exceeds record size"));
            }
            let mut ranks = Vec::with_capacity(nr);
            for _ in 0..nr {
                ranks.push(PersistedRank {
                    rank: c.u32("rank")?,
                    n_ranks: c.u32("rank world size")?,
                    steps: c.u64("steps")?,
                    state_hash: c.u64("state hash")?,
                    wall_us: c.f64("wall_us")?,
                    mpi_us: c.f64("mpi_us")?,
                    compute_us: c.f64("compute_us")?,
                    kernel_launches: c.u64("kernel launches")?,
                    host_tiles: c.u64("host tiles")?,
                    kernel_bytes: c.f64("kernel bytes")?,
                    time: c.f64("time")?,
                });
            }
            Record::CacheInsert {
                deck_hash,
                version_tag,
                code_rev,
                n_ranks,
                seed,
                report: PersistedReport {
                    version_tag: report_version,
                    ranks,
                },
            }
        }
        7 => Record::Evicted {
            deck_hash: c.u64("deck hash")?,
            version_tag: c.str("version tag")?,
            code_rev: c.str("code rev")?,
            n_ranks: c.u32("n_ranks")?,
            seed: c.u64("seed")?,
        },
        // Kinds 8 and 9 are retired: older builds wrote them for the
        // crash-loop quarantine (a run key embargoed after its job
        // panicked, and an operator's clear of that key). They still
        // decode, so a state dir those builds left boots without
        // truncation, and are never written again. Kind 8 ended its job:
        // it replays as `Failed` with the stored message. Kind 9 changes
        // nothing: it replays as a `Boot`.
        8 => {
            let id = c.u64("id")?;
            skip_run_key(&mut c)?;
            Record::Failed {
                id,
                message: c.str("message")?,
            }
        }
        9 => {
            skip_run_key(&mut c)?;
            Record::Boot
        }
        other => return Err(format!("unknown record kind {other}")),
    };
    c.done()?;
    Ok((epoch, rec))
}

/// Read past a retired record's run key (deck hash, version tag, code
/// rev, rank count, seed).
fn skip_run_key(c: &mut Cur) -> Result<(), String> {
    c.u64("deck hash")?;
    c.str("version tag")?;
    c.str("code rev")?;
    c.u32("n_ranks")?;
    c.u64("seed")?;
    Ok(())
}

/// Reconstruct the [`JobSpec`] a `Submitted` record describes. Fails if
/// the deck text no longer parses (config format drift across builds).
pub fn spec_of_submitted(rec: &Record) -> Result<JobSpec, String> {
    let Record::Submitted {
        tenant,
        version_tag,
        n_ranks,
        seed,
        priority,
        deck_text,
        ..
    } = rec
    else {
        return Err("not a Submitted record".into());
    };
    let deck = Deck::parse(deck_text).map_err(|e| e.to_string())?;
    Ok(JobSpec::new(deck)
        .tenant(tenant)
        .version(crate::wire::parse_version(version_tag)?)
        .ranks(*n_ranks as usize)
        .seed(*seed)
        .priority(*priority))
}

// ---------------------------------------------------------------------------
// Replay.
// ---------------------------------------------------------------------------

/// What replaying a journal found.
#[derive(Debug)]
pub struct Replay {
    /// Every valid record, file order, with its epoch stamp.
    pub records: Vec<(u64, Record)>,
    /// Why replay stopped early, if it did (torn tail / corruption).
    pub torn: Option<String>,
    /// Bytes dropped from the tail (0 when the journal was clean).
    pub truncated_bytes: u64,
    /// File offset of the end of the valid prefix.
    valid_end: u64,
}

/// Replay a journal file without modifying it. A missing file replays
/// as empty. A file that is not a journal (bad magic / unsupported
/// version) is an error — it is somebody else's data, not a torn tail,
/// and must not be silently truncated away.
pub fn replay(path: &Path) -> io::Result<Replay> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(Replay {
                records: Vec::new(),
                torn: None,
                truncated_bytes: 0,
                valid_end: 0,
            })
        }
        Err(e) => return Err(e),
    };
    if bytes.is_empty() {
        return Ok(Replay {
            records: Vec::new(),
            torn: None,
            truncated_bytes: 0,
            valid_end: 0,
        });
    }
    if bytes.len() < HEADER_LEN as usize {
        // Died while writing the very first header: nothing was ever
        // acknowledged, so an empty journal is the truthful state.
        return Ok(Replay {
            records: Vec::new(),
            torn: Some("torn file header".into()),
            truncated_bytes: bytes.len() as u64,
            valid_end: 0,
        });
    }
    if &bytes[..8] != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a mas-serve journal (bad magic)",
        ));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unsupported journal format version {version}"),
        ));
    }

    let mut records = Vec::new();
    let mut pos = HEADER_LEN as usize;
    let mut torn = None;
    while pos < bytes.len() {
        let remain = bytes.len() - pos;
        if remain < 4 {
            torn = Some(format!("torn frame length at offset {pos}"));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len > MAX_RECORD_LEN {
            torn = Some(format!("oversized record ({len} bytes) at offset {pos}"));
            break;
        }
        if remain < 4 + len + 4 {
            torn = Some(format!("torn record body at offset {pos}"));
            break;
        }
        let payload = &bytes[pos + 4..pos + 4 + len];
        let stored_crc =
            u32::from_le_bytes(bytes[pos + 4 + len..pos + 8 + len].try_into().unwrap());
        if stored_crc != crc32(payload) {
            torn = Some(format!("checksum mismatch at offset {pos}"));
            break;
        }
        match decode_payload(payload) {
            Ok((epoch, rec)) => records.push((epoch, rec)),
            Err(e) => {
                torn = Some(format!("undecodable record at offset {pos}: {e}"));
                break;
            }
        }
        pos += 8 + len;
    }
    let valid_end = pos as u64;
    Ok(Replay {
        records,
        torn,
        truncated_bytes: bytes.len() as u64 - valid_end,
        valid_end,
    })
}

// ---------------------------------------------------------------------------
// The append handle.
// ---------------------------------------------------------------------------

/// An open journal: append records, compact in place. One per server.
pub struct Journal {
    file: File,
    path: PathBuf,
    /// Records appended since open/compaction (the compaction trigger).
    appended: usize,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("appended", &self.appended)
            .finish()
    }
}

impl Journal {
    /// Open (or create) the journal at `path`, replaying it first. A
    /// torn tail is truncated off the file here, so the next append
    /// lands at the end of the valid prefix. Returns the handle and the
    /// replayed state.
    pub fn open(path: impl AsRef<Path>) -> io::Result<(Journal, Replay)> {
        let path = path.as_ref().to_path_buf();
        let rep = replay(&path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if rep.valid_end == 0 {
            // Fresh (or fully-torn) journal: (re)write the header.
            file.set_len(0)?;
            file.write_all(MAGIC)?;
            file.write_all(&FORMAT_VERSION.to_le_bytes())?;
            file.sync_all()?;
        } else if rep.truncated_bytes > 0 {
            // Drop the torn tail; everything before it stays durable.
            file.set_len(rep.valid_end)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::End(0))?;
        Ok((
            Journal {
                file,
                path,
                appended: 0,
            },
            rep,
        ))
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records appended since open or the last compaction.
    pub fn appended_since_compaction(&self) -> usize {
        self.appended
    }

    /// Append one record durably: framed, CRC'd, flushed, fsync'd. When
    /// this returns `Ok`, the record survives SIGKILL.
    pub fn append(&mut self, epoch: u64, rec: &Record) -> io::Result<()> {
        let payload = encode_payload(epoch, rec);
        assert!(payload.len() <= MAX_RECORD_LEN, "record exceeds frame cap");
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.sync_data()?;
        self.appended += 1;
        Ok(())
    }

    /// Atomically replace the journal with a snapshot of `records`
    /// (each stamped with `epoch`): write header + records to a
    /// `.compact` sibling, fsync, rename over the live file, reopen for
    /// append. A crash at any point leaves either the old or the new
    /// journal fully intact.
    pub fn compact(&mut self, epoch: u64, records: &[Record]) -> io::Result<()> {
        let tmp = {
            let mut os = self.path.as_os_str().to_os_string();
            os.push(".compact");
            PathBuf::from(os)
        };
        {
            let mut f = File::create(&tmp)?;
            let mut out = Vec::new();
            out.extend_from_slice(MAGIC);
            out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
            for rec in records {
                let payload = encode_payload(epoch, rec);
                out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
                out.extend_from_slice(&payload);
                out.extend_from_slice(&crc32(&payload).to_le_bytes());
            }
            f.write_all(&out)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // Make the rename itself durable (best-effort: not every
        // filesystem supports directory fsync).
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        self.appended = 0;
        Ok(())
    }
}

/// Verify a journal end-to-end without building any server state: walk
/// every frame, check every CRC. Returns (records, torn-tail note).
/// Used by tests and operator tooling.
pub fn verify(path: &Path) -> io::Result<(usize, Option<String>)> {
    let rep = replay(path)?;
    Ok((rep.records.len(), rep.torn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{JobId, JobState};

    /// A test case's scratch directory under the system temp dir. Its
    /// name carries the case and the process id, so two concurrent runs
    /// of the suite never share journals, and dropping it removes it
    /// with everything written there.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(case: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("mas_serve_journal_{case}_{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).expect("create scratch dir");
            Scratch(dir)
        }

        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Boot,
            Record::Submitted {
                id: 1,
                tenant: "helio".into(),
                version_tag: "AD2XU".into(),
                n_ranks: 2,
                seed: 42,
                priority: -3,
                deck_text: "&time\n  n_steps = 4\n/\n".into(),
            },
            Record::Started { id: 1 },
            Record::CacheInsert {
                deck_hash: 0xdead_beef,
                version_tag: "AD2XU".into(),
                code_rev: CODE_REV.into(),
                n_ranks: 2,
                seed: 42,
                report: PersistedReport {
                    version_tag: "AD2XU".into(),
                    ranks: vec![PersistedRank {
                        rank: 0,
                        n_ranks: 2,
                        steps: 4,
                        state_hash: 0x1234_5678_9abc_def0,
                        wall_us: 1.5,
                        mpi_us: 0.5,
                        compute_us: 1.0,
                        kernel_launches: 7,
                        host_tiles: 9,
                        kernel_bytes: 1e6,
                        time: 0.25,
                    }],
                },
            },
            Record::Done { id: 1, cached: false },
            Record::Failed {
                id: 2,
                message: "rank 1: boom\nat step 3".into(),
            },
            Record::Cancelled {
                id: 3,
                message: "operator".into(),
            },
            Record::Evicted {
                deck_hash: 0xdead_beef,
                version_tag: "AD2XU".into(),
                code_rev: CODE_REV.into(),
                n_ranks: 2,
                seed: 42,
            },
        ]
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = Scratch::new("append_replay_roundtrip");
        let p = dir.file("rt.log");
        let recs = sample_records();
        {
            let (mut j, rep) = Journal::open(&p).unwrap();
            assert!(rep.records.is_empty());
            for (i, r) in recs.iter().enumerate() {
                j.append(i as u64, r).unwrap();
            }
            assert_eq!(j.appended_since_compaction(), recs.len());
        }
        let rep = replay(&p).unwrap();
        assert!(rep.torn.is_none());
        assert_eq!(rep.truncated_bytes, 0);
        assert_eq!(rep.records.len(), recs.len());
        for (i, ((epoch, got), want)) in rep.records.iter().zip(&recs).enumerate() {
            assert_eq!(*epoch, i as u64);
            assert_eq!(got, want, "record {i}");
        }
    }

    #[test]
    fn every_flipped_byte_stops_replay_at_or_before_the_flip() {
        let dir = Scratch::new("every_flipped_byte_stops_replay_at_or_before_the_flip");
        let p = dir.file("flip.log");
        let recs = sample_records();
        {
            let (mut j, _) = Journal::open(&p).unwrap();
            for r in &recs {
                j.append(7, r).unwrap();
            }
        }
        let good = std::fs::read(&p).unwrap();
        let clean = replay(&p).unwrap().records;
        for idx in HEADER_LEN as usize..good.len() {
            let mut corrupt = good.clone();
            corrupt[idx] ^= 0x20;
            let pc = dir.file("flip_c.log");
            std::fs::write(&pc, &corrupt).unwrap();
            let rep = replay(&pc).unwrap();
            // Replay never panics, never returns more records than the
            // clean journal, and every surviving record is byte-exact
            // one of the originals (a prefix, possibly followed by
            // records after a flipped frame-length that happened to
            // stay valid — CRC framing makes that astronomically
            // unlikely, so we assert the prefix property).
            assert!(rep.records.len() <= clean.len(), "flip at {idx}");
            for (a, b) in rep.records.iter().zip(&clean) {
                assert_eq!(a, b, "flip at {idx} resurrected a corrupted record");
            }
            // A flip strictly inside a frame must sacrifice that frame.
            assert!(
                rep.records.len() < clean.len(),
                "flip at {idx} was not detected"
            );
        }
    }

    #[test]
    fn truncation_at_every_length_keeps_the_valid_prefix() {
        let dir = Scratch::new("truncation_at_every_length_keeps_the_valid_prefix");
        let p = dir.file("trunc.log");
        let recs = sample_records();
        {
            let (mut j, _) = Journal::open(&p).unwrap();
            for r in &recs {
                j.append(1, r).unwrap();
            }
        }
        let good = std::fs::read(&p).unwrap();
        let clean = replay(&p).unwrap().records;
        for cut in 0..good.len() {
            let pt = dir.file("trunc_c.log");
            std::fs::write(&pt, &good[..cut]).unwrap();
            let rep = replay(&pt).unwrap();
            assert!(rep.records.len() <= clean.len());
            for (a, b) in rep.records.iter().zip(&clean) {
                assert_eq!(a, b, "cut at {cut}");
            }
            if cut < good.len() {
                assert_eq!(
                    rep.truncated_bytes as usize,
                    cut - rep.valid_end as usize,
                    "cut at {cut}: truncation accounting"
                );
            }
            // Re-opening truncates the torn tail and the journal is
            // appendable again.
            let (mut j, rep2) = Journal::open(&pt).unwrap();
            assert_eq!(rep2.records.len(), rep.records.len());
            j.append(2, &Record::Boot).unwrap();
            let rep3 = replay(&pt).unwrap();
            assert!(rep3.torn.is_none(), "cut at {cut}: {:?}", rep3.torn);
            assert_eq!(rep3.records.len(), rep.records.len() + 1);
        }
    }

    #[test]
    fn oversized_lengths_are_rejected_without_allocation() {
        let dir = Scratch::new("oversized_lengths_are_rejected_without_allocation");
        let p = dir.file("big.log");
        {
            let (mut j, _) = Journal::open(&p).unwrap();
            j.append(1, &Record::Boot).unwrap();
        }
        let mut bytes = std::fs::read(&p).unwrap();
        // Claim a ~4 GiB record in the frame length.
        let at = HEADER_LEN as usize;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let rep = replay(&p).unwrap();
        assert!(rep.records.is_empty());
        assert!(rep.torn.as_deref().unwrap().contains("oversized"), "{:?}", rep.torn);
    }

    #[test]
    fn non_journal_files_error_instead_of_truncating() {
        let dir = Scratch::new("non_journal_files_error_instead_of_truncating");
        let p = dir.file("notajournal.log");
        std::fs::write(&p, b"this is somebody else's data, not a journal").unwrap();
        let err = replay(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(Journal::open(&p).is_err(), "open must refuse to wipe it");
        // The file is untouched.
        assert_eq!(
            std::fs::read(&p).unwrap(),
            b"this is somebody else's data, not a journal"
        );
    }

    #[test]
    fn compaction_preserves_state_and_resets_the_trigger() {
        let dir = Scratch::new("compaction_preserves_state_and_resets_the_trigger");
        let p = dir.file("compact.log");
        let recs = sample_records();
        let (mut j, _) = Journal::open(&p).unwrap();
        for r in &recs {
            j.append(1, r).unwrap();
        }
        let snapshot = vec![recs[1].clone(), recs[3].clone()];
        j.compact(2, &snapshot).unwrap();
        assert_eq!(j.appended_since_compaction(), 0);
        // The compacted journal holds exactly the snapshot...
        let rep = replay(&p).unwrap();
        assert!(rep.torn.is_none());
        assert_eq!(
            rep.records,
            snapshot.iter().map(|r| (2, r.clone())).collect::<Vec<_>>()
        );
        // ...and stays appendable.
        j.append(2, &Record::Started { id: 1 }).unwrap();
        let rep = replay(&p).unwrap();
        assert_eq!(rep.records.len(), 3);
        // No temp litter.
        assert!(!p.with_extension("log.compact").exists());
    }

    #[test]
    fn spec_roundtrips_through_a_submitted_record() {
        let deck = mas_config::Deck::preset_quickstart();
        let spec = JobSpec::new(deck)
            .tenant("helio")
            .version(stdpar::CodeVersion::D2xad)
            .ranks(4)
            .seed(99)
            .priority(5);
        let rec = Record::submitted(11, &spec);
        let back = spec_of_submitted(&rec).unwrap();
        assert_eq!(back.tenant, "helio");
        assert_eq!(back.version, stdpar::CodeVersion::D2xad);
        assert_eq!(back.n_ranks, 4);
        assert_eq!(back.seed, 99);
        assert_eq!(back.priority, 5);
        assert_eq!(
            back.deck.content_hash(),
            spec.deck.content_hash(),
            "deck survives by content"
        );
    }

    #[test]
    fn retired_quarantine_frames_still_boot() {
        // The journal an older build left after quarantining a panicking
        // job and clearing its key, written byte by byte like
        // `old_journal_layout_still_replays`: job 1 submitted, started,
        // quarantined (kind 8) and cleared (kind 9); job 2 submitted and
        // started when the process died. The deck text is this build's:
        // an older build's also carried `&serve max_attempts`, which this
        // build refuses, so such a job is dropped as unparseable.
        let dir = Scratch::new("retired_quarantine_frames_still_boot");
        let p = dir.file("journal.log");
        let mut deck = Deck::preset_quickstart();
        deck.time.n_steps = 2;
        deck.output.hist_interval = 0;
        let deck_text = deck.to_deck_string();
        let message = "worker panicked: injected worker panic (problem = 'chaos-panic')";
        let submitted = |id: u64, seed: u64| {
            let mut body = Vec::new();
            w_u64(&mut body, id);
            w_str(&mut body, "t");
            w_str(&mut body, "A");
            w_u32(&mut body, 1);
            w_u64(&mut body, seed);
            w_i32(&mut body, 0);
            w_str(&mut body, &deck_text);
            (1u8, body)
        };
        let started = |id: u64| (2u8, id.to_le_bytes().to_vec());
        let mut run_key = Vec::new();
        w_u64(&mut run_key, 0xfeed_f00d); // deck hash
        w_str(&mut run_key, "A");
        w_str(&mut run_key, CODE_REV);
        w_u32(&mut run_key, 1);
        w_u64(&mut run_key, 7);
        let mut kind8 = 1u64.to_le_bytes().to_vec(); // job id
        kind8.extend_from_slice(&run_key);
        w_str(&mut kind8, message);
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for (kind, body) in [
            submitted(1, 7),
            started(1),
            (8, kind8),
            (9, run_key),
            submitted(2, 8),
            started(2),
        ] {
            let mut payload = Vec::new();
            w_u64(&mut payload, 1); // epoch
            payload.push(kind);
            payload.extend_from_slice(&body);
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
            bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        }
        std::fs::write(&p, &bytes).unwrap();

        let rep = replay(&p).unwrap();
        assert!(rep.torn.is_none(), "{:?}", rep.torn);
        assert_eq!(rep.records.len(), 6);
        let failed = Record::Failed {
            id: 1,
            message: message.into(),
        };
        assert_eq!(rep.records[2], (1, failed), "kind 8 ends its job");
        assert_eq!(rep.records[3], (1, Record::Boot), "kind 9 changes nothing");
        drop(Journal::open(&p).unwrap());
        assert_eq!(
            std::fs::metadata(&p).unwrap().len(),
            bytes.len() as u64,
            "open truncates nothing"
        );

        let cfg = crate::ServerConfig::new(gpusim::DeviceSpec::a100_40gb(), 1);
        let (server, summary) = crate::Server::recover(cfg, &dir.0).unwrap();
        assert_eq!(
            (
                summary.failed,
                summary.requeued,
                summary.dropped_unparseable
            ),
            (1, 1, 0),
            "{summary}"
        );
        let status = server.status(JobId(1)).unwrap();
        assert_eq!(status.state, JobState::Failed);
        assert_eq!(status.error.as_deref(), Some(message));
        assert_eq!(server.wait(JobId(2)).unwrap().state, JobState::Done);
        server.shutdown();
        server.join();
    }

    #[test]
    fn old_journal_layout_still_replays() {
        let dir = Scratch::new("old_journal_layout_still_replays");
        // A PR-8 era journal knows only kinds 0–7. Re-encode a
        // representative record with the old layout written out by hand
        // (independent of today's encoder) and require replay to accept
        // it — the on-disk layout of pre-existing kinds must never
        // drift under new record types.
        let mut payload = Vec::new();
        w_u64(&mut payload, 3); // epoch
        payload.push(4u8); // kind: Failed
        w_u64(&mut payload, 17); // id
        w_str(&mut payload, "rank 0: boom");
        let p = dir.file("old.log");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let rep = replay(&p).unwrap();
        assert!(rep.torn.is_none());
        assert_eq!(
            rep.records,
            vec![(
                3,
                Record::Failed {
                    id: 17,
                    message: "rank 0: boom".into()
                }
            )]
        );
        // And a record kind from some *future* format stops replay
        // cleanly at the valid prefix instead of panicking.
        let mut future = Vec::new();
        w_u64(&mut future, 3);
        future.push(10u8);
        bytes.extend_from_slice(&(future.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&future);
        bytes.extend_from_slice(&crc32(&future).to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let rep = replay(&p).unwrap();
        assert_eq!(rep.records.len(), 1);
        assert!(rep.torn.as_deref().unwrap().contains("unknown record kind 10"));
    }

    #[test]
    fn persisted_report_keeps_the_durable_core() {
        let rec = sample_records().remove(3);
        let Record::CacheInsert { report, .. } = rec else {
            panic!()
        };
        let full = report.to_report().unwrap();
        assert_eq!(full.ranks.len(), 1);
        assert_eq!(full.ranks[0].state_hash, 0x1234_5678_9abc_def0);
        assert_eq!(full.ranks[0].steps, 4);
        assert_eq!(full.ranks[0].version, stdpar::CodeVersion::Ad2xu);
        let back = PersistedReport::from_report(&full);
        assert_eq!(back, report, "persist → rehydrate → persist is stable");
    }
}
