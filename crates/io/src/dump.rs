//! Binary field dumps: the checkpoint/restart format.
//!
//! Version-3 layout (all little-endian):
//!
//! ```text
//! magic   b"MASRSDMP"
//! version u32            (3)
//! step    u64
//! time    f64
//! epoch   u64            (communicator epoch at dump time)
//! nfields u32
//! per field:
//!   name_len u32, name bytes,
//!   s1 u32, s2 u32, s3 u32,
//!   s1*s2*s3 f64 values (full storage, ghosts included)
//! crc32   u32            (IEEE CRC-32 over every byte above)
//! ```
//!
//! Only version 3 is read: the retired versions 1 (no epoch word, no
//! CRC trailer) and 2 (no epoch word) are rejected as unsupported.
//! Writes are **crash-safe**: the dump is written to a `.tmp` sibling,
//! fsynced, and atomically renamed over the final path, so a crash
//! mid-write can never leave a truncated file where a good dump should
//! be — at worst a stale `.tmp` litters the directory.

use mas_field::Array3;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

const MAGIC: &[u8; 8] = b"MASRSDMP";
const VERSION: u32 = 3;
/// Longest accepted field name (guards against reading garbage lengths).
const MAX_NAME_LEN: usize = 256;

/// Run metadata stored in a dump.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DumpHeader {
    /// Step counter at dump time.
    pub step: u64,
    /// Physical time at dump time.
    pub time: f64,
    /// Communicator epoch at dump time: bumped on every rank respawn, so
    /// a checkpoint records which incarnation of the world wrote it.
    pub epoch: u64,
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, the zlib polynomial), table-driven, no dependencies.
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// Streaming CRC-32 accumulator.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Crc32(0xffff_ffff)
    }

    /// Fold `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut c = self.0;
        for &b in bytes {
            c = CRC_TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        self.0 = c;
    }

    /// Finalized checksum value.
    pub fn value(&self) -> u32 {
        self.0 ^ 0xffff_ffff
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of a byte slice.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.value()
}

/// Writer adapter that checksums everything passing through it.
struct CrcWriter<W: Write> {
    inner: W,
    crc: Crc32,
}

impl<W: Write> Write for CrcWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Reader adapter that checksums everything passing through it.
struct CrcReader<R: Read> {
    inner: R,
    crc: Crc32,
}

impl<R: Read> Read for CrcReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Primitive (de)serialization helpers.
// ---------------------------------------------------------------------------

fn w_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn w_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// `read_exact` with truncation mapped to a clean `InvalidData` error
/// (a short file is corrupt data, not an I/O transport failure).
fn read_exact_or_bad(r: &mut impl Read, buf: &mut [u8], what: &str) -> io::Result<()> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            bad(format!("truncated dump while reading {what}"))
        } else {
            e
        }
    })
}

fn r_u32(r: &mut impl Read, what: &str) -> io::Result<u32> {
    let mut b = [0u8; 4];
    read_exact_or_bad(r, &mut b, what)?;
    Ok(u32::from_le_bytes(b))
}
fn r_u64(r: &mut impl Read, what: &str) -> io::Result<u64> {
    let mut b = [0u8; 8];
    read_exact_or_bad(r, &mut b, what)?;
    Ok(u64::from_le_bytes(b))
}
fn r_f64(r: &mut impl Read, what: &str) -> io::Result<f64> {
    let mut b = [0u8; 8];
    read_exact_or_bad(r, &mut b, what)?;
    Ok(f64::from_le_bytes(b))
}

// ---------------------------------------------------------------------------
// Writing.
// ---------------------------------------------------------------------------

fn write_body(
    w: &mut impl Write,
    header: DumpHeader,
    fields: &[(&str, &Array3)],
) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w_u32(w, VERSION)?;
    w_u64(w, header.step)?;
    w_f64(w, header.time)?;
    w_u64(w, header.epoch)?;
    w_u32(w, fields.len() as u32)?;
    for (name, a) in fields {
        w_u32(w, name.len() as u32)?;
        w.write_all(name.as_bytes())?;
        w_u32(w, a.s1 as u32)?;
        w_u32(w, a.s2 as u32)?;
        w_u32(w, a.s3 as u32)?;
        for &v in a.as_slice() {
            w_f64(w, v)?;
        }
    }
    Ok(())
}

/// Write `fields` (name, array) to `path` in the current (v3) format.
///
/// Crash-safe: data lands in `<path>.tmp` first, is fsynced, and is then
/// atomically renamed onto `path` — readers never observe a partial dump.
pub fn write_fields(
    path: impl AsRef<Path>,
    header: DumpHeader,
    fields: &[(&str, &Array3)],
) -> io::Result<()> {
    write_fields_with_fault(path, header, fields, None)
}

/// [`write_fields`] with an optional injected failure: when `fault` is
/// `Some(kind)`, the write starts (creating the `.tmp` sibling and
/// emitting a partial header) and then fails with an error of `kind`
/// **before** the atomic rename — exactly what a node loss mid-checkpoint
/// looks like from the next process's point of view. The destination path
/// is never touched. This is the fault-injection seam used by the run
/// supervisor; production callers use [`write_fields`].
pub fn write_fields_with_fault(
    path: impl AsRef<Path>,
    header: DumpHeader,
    fields: &[(&str, &Array3)],
    fault: Option<io::ErrorKind>,
) -> io::Result<()> {
    let path = path.as_ref();
    let tmp = tmp_path(path);
    {
        let file = std::fs::File::create(&tmp)?;
        let mut w = CrcWriter {
            inner: BufWriter::new(file),
            crc: Crc32::new(),
        };
        if let Some(kind) = fault {
            // Simulate dying partway through: emit a torn prefix, leave
            // the .tmp behind, report the chosen error.
            w.write_all(MAGIC)?;
            w_u32(&mut w, VERSION)?;
            w.flush()?;
            return Err(io::Error::new(kind, "injected checkpoint write failure"));
        }
        write_body(&mut w, header, fields)?;
        let crc = w.crc.value();
        w_u32(&mut w, crc)?;
        w.flush()?;
        // Durability: the data must be on disk before the rename makes it
        // the authoritative dump.
        w.inner.get_ref().sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

fn tmp_path(path: &Path) -> std::path::PathBuf {
    let mut os = path.as_os_str().to_os_string();
    os.push(".tmp");
    std::path::PathBuf::from(os)
}

// ---------------------------------------------------------------------------
// Reading.
// ---------------------------------------------------------------------------

/// Read a dump into the provided `(name, array)` pairs. Every requested
/// field must be present with matching storage dimensions; extra fields
/// in the file are an error (dumps and solvers must agree exactly).
///
/// The CRC-32 trailer is verified over the full header + payload, and any
/// trailing bytes after it are rejected — a dump is exactly its declared
/// content or it is corrupt.
pub fn read_fields(
    path: impl AsRef<Path>,
    fields: &mut [(&str, &mut Array3)],
) -> io::Result<DumpHeader> {
    walk(path.as_ref(), Some(fields))
}

/// Validate a dump **without** loading it into arrays: parse the full
/// structure, stream the payload through the checksum in bounded chunks
/// (a corrupt size field can never trigger a huge allocation), verify
/// the CRC trailer and reject trailing bytes. Returns the header on
/// success.
///
/// This is how the run supervisor picks the newest *valid* rotation slot
/// at restart time: a torn or bit-rotted candidate fails here and the
/// previous slot is used instead.
pub fn validate_dump(path: impl AsRef<Path>) -> io::Result<DumpHeader> {
    walk(path.as_ref(), None)
}

/// The one parser behind [`read_fields`] and [`validate_dump`]: header,
/// field headers, payload, CRC trailer, end of file. With `load`, every
/// field must match its expected name and dimensions and its payload
/// lands in the array; without, payloads are streamed through the
/// checksum and discarded.
fn walk(path: &Path, mut load: Option<&mut [(&str, &mut Array3)]>) -> io::Result<DumpHeader> {
    let mut r = CrcReader {
        inner: BufReader::new(std::fs::File::open(path)?),
        crc: Crc32::new(),
    };
    let mut magic = [0u8; 8];
    read_exact_or_bad(&mut r, &mut magic, "magic")?;
    if &magic != MAGIC {
        return Err(bad("not a mas-rs dump file"));
    }
    let version = r_u32(&mut r, "format version")?;
    if version != VERSION {
        return Err(bad(format!("unsupported dump version {version}")));
    }
    let header = DumpHeader {
        step: r_u64(&mut r, "step")?,
        time: r_f64(&mut r, "time")?,
        epoch: r_u64(&mut r, "epoch")?,
    };
    let nfields = r_u32(&mut r, "field count")? as usize;
    if let Some(fields) = &load {
        if nfields != fields.len() {
            return Err(bad(format!(
                "dump holds {nfields} fields, solver expects {}",
                fields.len()
            )));
        }
    }
    let mut scratch = [0u8; 8192];
    for i in 0..nfields {
        let name_len = r_u32(&mut r, "field name length")? as usize;
        if name_len > MAX_NAME_LEN {
            // Bounded before any allocation: a corrupt length can never
            // trigger a huge read.
            return Err(bad(format!(
                "corrupt field name (length {name_len} exceeds {MAX_NAME_LEN})"
            )));
        }
        read_exact_or_bad(&mut r, &mut scratch[..name_len], "field name")?;
        let name =
            std::str::from_utf8(&scratch[..name_len]).map_err(|_| bad("non-UTF8 field name"))?;
        let s1 = r_u32(&mut r, "dim s1")? as usize;
        let s2 = r_u32(&mut r, "dim s2")? as usize;
        let s3 = r_u32(&mut r, "dim s3")? as usize;
        // Overflow-checked payload size: s1*s2*s3*8 as u32s can overflow
        // usize multiplication on 32-bit targets and must never panic or
        // size an allocation.
        let bytes = s1
            .checked_mul(s2)
            .and_then(|x| x.checked_mul(s3))
            .and_then(|x| x.checked_mul(8))
            .ok_or_else(|| bad(format!("field '{name}' dims {s1}x{s2}x{s3} overflow")))?;
        match &mut load {
            Some(fields) => {
                let (expect_name, a) = &mut fields[i];
                if name != *expect_name {
                    return Err(bad(format!(
                        "field order mismatch: '{name}' vs '{expect_name}'"
                    )));
                }
                if (s1, s2, s3) != (a.s1, a.s2, a.s3) || bytes != 8 * a.as_slice().len() {
                    return Err(bad(format!(
                        "field '{name}' dims {s1}x{s2}x{s3} vs expected {}x{}x{}",
                        a.s1, a.s2, a.s3
                    )));
                }
                for v in a.as_mut_slice() {
                    *v = r_f64(&mut r, "field data")?;
                }
            }
            None => {
                let mut remaining = bytes;
                while remaining > 0 {
                    let take = remaining.min(scratch.len());
                    read_exact_or_bad(&mut r, &mut scratch[..take], "field data")?;
                    remaining -= take;
                }
            }
        }
    }
    // The CRC accumulated so far covers magic..payload; the trailer
    // itself must match it.
    let expect = r.crc.value();
    let stored = r_u32(&mut r, "crc trailer")?;
    if stored != expect {
        return Err(bad(format!(
            "checksum mismatch: stored {stored:#010x}, computed {expect:#010x} — dump is corrupt"
        )));
    }
    // Reject trailing bytes: the dump is exactly its declared content.
    let mut extra = [0u8; 1];
    match r.inner.read(&mut extra)? {
        0 => Ok(header),
        _ => Err(bad("trailing bytes after dump content")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scratch;

    fn sample_pair() -> (Array3, Array3) {
        let mut a = Array3::zeros(3, 4, 5);
        let mut b = Array3::zeros(2, 2, 2);
        for (idx, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = idx as f64 * 0.5;
        }
        b.set(1, 1, 1, -7.25);
        (a, b)
    }

    #[test]
    fn roundtrip() {
        let dir = Scratch::new("dump_roundtrip");
        let (a, b) = sample_pair();
        let p = dir.file("rt.dump");
        write_fields(&p, DumpHeader { step: 42, time: 1.5, epoch: 3 }, &[("rho", &a), ("temp", &b)])
            .unwrap();
        let mut a2 = Array3::zeros(3, 4, 5);
        let mut b2 = Array3::zeros(2, 2, 2);
        let h = read_fields(&p, &mut [("rho", &mut a2), ("temp", &mut b2)]).unwrap();
        assert_eq!(h, DumpHeader { step: 42, time: 1.5, epoch: 3 });
        assert_eq!(a.as_slice(), a2.as_slice());
        assert_eq!(b.as_slice(), b2.as_slice());
        // Atomic write leaves no temp litter on success.
        assert!(!tmp_path(&p).exists());
    }

    /// Hand-write one dump in a retired layout (v1: no epoch word, no CRC
    /// trailer; v2: no epoch word, CRC trailer) and expect both readers to
    /// reject it.
    fn assert_retired_version_rejected(version: u32) {
        let dir = Scratch::new(&format!("dump_retired_v{version}"));
        let (a, _) = sample_pair();
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&version.to_le_bytes());
        bytes.extend_from_slice(&7u64.to_le_bytes());
        bytes.extend_from_slice(&0.25f64.to_le_bytes());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&3u32.to_le_bytes());
        bytes.extend_from_slice(b"rho");
        for s in [a.s1, a.s2, a.s3] {
            bytes.extend_from_slice(&(s as u32).to_le_bytes());
        }
        for v in a.as_slice() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        if version == 2 {
            let crc = crc32(&bytes);
            bytes.extend_from_slice(&crc.to_le_bytes());
        }
        let p = dir.file(&format!("v{version}.dump"));
        std::fs::write(&p, &bytes).unwrap();
        let err = validate_dump(&p).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported dump version"), "v{version}: {err}");
        let mut a2 = Array3::zeros(3, 4, 5);
        let err = read_fields(&p, &mut [("rho", &mut a2)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported dump version"), "v{version}: {err}");
    }

    #[test]
    fn rejects_retired_v1_dumps() {
        assert_retired_version_rejected(1);
    }

    #[test]
    fn rejects_retired_v2_dumps() {
        assert_retired_version_rejected(2);
    }

    #[test]
    fn crc_catches_single_flipped_byte_anywhere() {
        let dir = Scratch::new("dump_crc_catches_single_flipped_byte_anywhere");
        let (a, b) = sample_pair();
        let p = dir.file("flip.dump");
        write_fields(&p, DumpHeader { step: 1, time: 2.0, epoch: 0 }, &[("rho", &a), ("temp", &b)])
            .unwrap();
        let good = std::fs::read(&p).unwrap();
        // Flip one byte in a payload value (past header/names so the
        // structural checks cannot catch it — only the CRC can).
        let mut corrupt = good.clone();
        let idx = good.len() - 12; // inside the last field's data
        corrupt[idx] ^= 0x40;
        let pc = dir.file("flip_c.dump");
        std::fs::write(&pc, &corrupt).unwrap();
        let mut a2 = Array3::zeros(3, 4, 5);
        let mut b2 = Array3::zeros(2, 2, 2);
        let err = read_fields(&pc, &mut [("rho", &mut a2), ("temp", &mut b2)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn rejects_trailing_bytes() {
        let dir = Scratch::new("dump_rejects_trailing_bytes");
        let (a, _) = sample_pair();
        let p = dir.file("trail.dump");
        write_fields(&p, DumpHeader { step: 0, time: 0.0, epoch: 0 }, &[("rho", &a)]).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes.push(0u8);
        std::fs::write(&p, &bytes).unwrap();
        let mut a2 = Array3::zeros(3, 4, 5);
        let err = read_fields(&p, &mut [("rho", &mut a2)]).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn injected_write_fault_leaves_destination_untouched() {
        let dir = Scratch::new("dump_injected_write_fault_leaves_destination_untouched");
        let (a, _) = sample_pair();
        let p = dir.file("fault.dump");
        // A good dump exists...
        write_fields(&p, DumpHeader { step: 5, time: 1.0, epoch: 0 }, &[("rho", &a)]).unwrap();
        // ...then the next write dies mid-flight.
        let err = write_fields_with_fault(
            &p,
            DumpHeader { step: 9, time: 2.0, epoch: 0 },
            &[("rho", &a)],
            Some(io::ErrorKind::Other),
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Other);
        // The torn temp exists, the good dump survives.
        assert!(tmp_path(&p).exists());
        let mut a2 = Array3::zeros(3, 4, 5);
        let h = read_fields(&p, &mut [("rho", &mut a2)]).unwrap();
        assert_eq!(h.step, 5);
        std::fs::remove_file(tmp_path(&p)).ok();
    }

    #[test]
    fn truncation_at_every_boundary_is_clean_invalid_data() {
        let dir = Scratch::new("dump_truncation_at_every_boundary_is_clean_invalid_data");
        let (a, b) = sample_pair();
        let p = dir.file("trunc.dump");
        write_fields(&p, DumpHeader { step: 3, time: 0.5, epoch: 0 }, &[("rho", &a), ("temp", &b)])
            .unwrap();
        let good = std::fs::read(&p).unwrap();
        // Section boundaries of the v3 layout (offsets in bytes):
        //   0 magic | 8 version | 12 step | 20 time | 28 epoch |
        //   36 nfields | 40 name_len | 44 name | 47 dims | 59 payload
        //   start | mid-payload | end-of-payload (missing CRC) | partial CRC
        let cuts = [
            0usize, 4, 8, 10, 12, 16, 20, 24, 28, 32, 36, 38, 40, 42, 44, 46, 47, 53, 59, 60, 68,
            good.len() - 4, // everything but the CRC trailer
            good.len() - 2, // partial CRC trailer
        ];
        for cut in cuts {
            let pt = dir.file("trunc_cut.dump");
            std::fs::write(&pt, &good[..cut]).unwrap();
            let mut a2 = Array3::zeros(3, 4, 5);
            let mut b2 = Array3::zeros(2, 2, 2);
            let err = read_fields(&pt, &mut [("rho", &mut a2), ("temp", &mut b2)])
                .expect_err(&format!("cut at {cut} must fail"));
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "cut at {cut}: kind {:?} ({err})",
                err.kind()
            );
        }
    }

    #[test]
    fn oversized_name_len_is_rejected_without_allocation() {
        let dir = Scratch::new("dump_oversized_name_len_is_rejected_without_allocation");
        let (a, _) = sample_pair();
        let p = dir.file("bigname.dump");
        write_fields(&p, DumpHeader { step: 0, time: 0.0, epoch: 0 }, &[("rho", &a)]).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // name_len lives at offset 40 (after the v3 epoch word); claim ~4 GiB.
        bytes[40..44].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let mut a2 = Array3::zeros(3, 4, 5);
        let err = read_fields(&p, &mut [("rho", &mut a2)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("corrupt field name"), "{err}");
    }

    #[test]
    fn dim_overflow_is_rejected_cleanly() {
        let dir = Scratch::new("dump_dim_overflow_is_rejected_cleanly");
        let (a, _) = sample_pair();
        let p = dir.file("dimovf.dump");
        write_fields(&p, DumpHeader { step: 0, time: 0.0, epoch: 0 }, &[("rho", &a)]).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        // Dims live right after "rho" (offset 40 name_len + 4 + 3 name).
        let d = 47;
        bytes[d..d + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[d + 4..d + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        bytes[d + 8..d + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let mut a2 = Array3::zeros(3, 4, 5);
        let err = read_fields(&p, &mut [("rho", &mut a2)]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Either the checked product or the dim comparison rejects it —
        // both are InvalidData and neither panics or allocates.
    }

    #[test]
    fn rejects_wrong_magic() {
        let dir = Scratch::new("dump_rejects_wrong_magic");
        let p = dir.file("bad.dump");
        std::fs::write(&p, b"NOTADUMPxxxxxxxxxxxx").unwrap();
        let mut a = Array3::zeros(2, 2, 2);
        let err = read_fields(&p, &mut [("rho", &mut a)]).unwrap_err();
        assert!(err.to_string().contains("not a mas-rs dump"));
    }

    #[test]
    fn rejects_future_version() {
        let dir = Scratch::new("dump_rejects_future_version");
        let (a, _) = sample_pair();
        let p = dir.file("future.dump");
        write_fields(&p, DumpHeader { step: 0, time: 0.0, epoch: 0 }, &[("rho", &a)]).unwrap();
        let mut bytes = std::fs::read(&p).unwrap();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        std::fs::write(&p, &bytes).unwrap();
        let mut a2 = Array3::zeros(3, 4, 5);
        let err = read_fields(&p, &mut [("rho", &mut a2)]).unwrap_err();
        assert!(err.to_string().contains("unsupported dump version"));
    }

    #[test]
    fn rejects_dim_mismatch() {
        let dir = Scratch::new("dump_rejects_dim_mismatch");
        let a = Array3::zeros(3, 3, 3);
        let p = dir.file("dims.dump");
        write_fields(&p, DumpHeader { step: 0, time: 0.0, epoch: 0 }, &[("rho", &a)]).unwrap();
        let mut b = Array3::zeros(4, 3, 3);
        let err = read_fields(&p, &mut [("rho", &mut b)]).unwrap_err();
        assert!(err.to_string().contains("dims"));
    }

    #[test]
    fn rejects_name_mismatch() {
        let dir = Scratch::new("dump_rejects_name_mismatch");
        let a = Array3::zeros(2, 2, 2);
        let p = dir.file("names.dump");
        write_fields(&p, DumpHeader { step: 0, time: 0.0, epoch: 0 }, &[("rho", &a)]).unwrap();
        let mut b = Array3::zeros(2, 2, 2);
        let err = read_fields(&p, &mut [("temp", &mut b)]).unwrap_err();
        assert!(err.to_string().contains("mismatch"));
    }

    #[test]
    fn rejects_field_count_mismatch() {
        let dir = Scratch::new("dump_rejects_field_count_mismatch");
        let a = Array3::zeros(2, 2, 2);
        let p = dir.file("count.dump");
        write_fields(&p, DumpHeader { step: 0, time: 0.0, epoch: 0 }, &[("rho", &a)]).unwrap();
        let mut b = Array3::zeros(2, 2, 2);
        let mut c = Array3::zeros(2, 2, 2);
        let err = read_fields(&p, &mut [("rho", &mut b), ("temp", &mut c)]).unwrap_err();
        assert!(err.to_string().contains("expects 2"));
    }

    #[test]
    fn validate_accepts_good_rejects_corrupt() {
        let dir = Scratch::new("dump_validate_accepts_good_rejects_corrupt");
        let (a, b) = sample_pair();
        let p = dir.file("val.dump");
        write_fields(&p, DumpHeader { step: 11, time: 3.5, epoch: 0 }, &[("rho", &a), ("temp", &b)])
            .unwrap();
        let h = validate_dump(&p).unwrap();
        assert_eq!(h, DumpHeader { step: 11, time: 3.5, epoch: 0 });
        // Flip a payload byte: validation must reject it.
        let mut bytes = std::fs::read(&p).unwrap();
        let idx = bytes.len() - 12;
        bytes[idx] ^= 0x01;
        let pc = dir.file("val_c.dump");
        std::fs::write(&pc, &bytes).unwrap();
        let err = validate_dump(&pc).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // Truncation is also clean InvalidData, at every prefix length.
        let good = std::fs::read(&p).unwrap();
        for cut in [0, 7, 13, 31, 40, good.len() - 1] {
            let pt = dir.file("val_t.dump");
            std::fs::write(&pt, &good[..cut]).unwrap();
            let err = validate_dump(&pt).expect_err(&format!("cut {cut}"));
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut {cut}: {err}");
        }
        // Oversized dims stream-discard without allocating: claim huge
        // dims and let the bounded reader hit EOF cleanly.
        let mut big = good.clone();
        big[47..51].copy_from_slice(&1000u32.to_le_bytes());
        big[51..55].copy_from_slice(&1000u32.to_le_bytes());
        big[55..59].copy_from_slice(&1000u32.to_le_bytes());
        let pb = dir.file("val_b.dump");
        std::fs::write(&pb, &big).unwrap();
        let err = validate_dump(&pb).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }
}
