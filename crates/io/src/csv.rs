//! Minimal CSV writer for the figure data series.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Buffered CSV writer.
pub struct CsvWriter {
    out: BufWriter<File>,
    ncol: usize,
}

impl CsvWriter {
    /// Create/overwrite `path` with the given header.
    pub fn create(path: impl AsRef<Path>, header: &[&str]) -> std::io::Result<Self> {
        let f = File::create(path)?;
        let mut out = BufWriter::new(f);
        writeln!(out, "{}", header.join(","))?;
        Ok(Self {
            out,
            ncol: header.len(),
        })
    }

    /// Write a row of formatted values.
    pub fn row(&mut self, vals: &[String]) -> std::io::Result<()> {
        assert_eq!(vals.len(), self.ncol, "CSV row width mismatch");
        writeln!(self.out, "{}", vals.join(","))
    }

    /// Flush to disk.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_header_and_rows() {
        let dir = crate::Scratch::new("csv_rows");
        let path = dir.file("t.csv");
        {
            let mut w = CsvWriter::create(&path, &["x", "y"]).unwrap();
            w.row(&["1".into(), "2.5".into()]).unwrap();
            w.flush().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, "x,y\n1,2.5\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn rejects_wrong_width() {
        let dir = crate::Scratch::new("csv_width");
        let mut w = CsvWriter::create(dir.file("t.csv"), &["x", "y"]).unwrap();
        w.row(&["1".into()]).unwrap();
    }
}
