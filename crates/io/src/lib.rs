#![warn(missing_docs)]
//! # mas-io
//!
//! Output machinery for the benchmark harness and examples:
//!
//! * [`table`] — fixed-width text tables in the paper's layout;
//! * [`csv`] — series writers for the figure data;
//! * [`render`] — PPM/ASCII renders of solution cuts (the paper's Fig. 1);
//! * [`timeline`] — NSIGHT-style textual timelines from profiler spans
//!   (the paper's Fig. 4);
//! * [`dump`] — binary field dumps (checkpoint/restart format).

pub mod csv;
pub mod dump;
pub mod render;
pub mod table;
pub mod timeline;

pub use csv::CsvWriter;
pub use dump::{
    crc32, read_fields, validate_dump, write_fields, write_fields_with_fault, DumpHeader,
};
pub use render::{render_ascii, render_ppm, Colormap};
pub use table::Table;
pub use timeline::{export_chrome_trace, render_timeline};

/// A test case's scratch directory under the system temp dir. Its name
/// carries the case and the process id, so two concurrent runs of the
/// suite never share files, and dropping it removes it with everything
/// written there.
#[cfg(test)]
pub(crate) struct Scratch(std::path::PathBuf);

#[cfg(test)]
impl Scratch {
    pub(crate) fn new(case: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mas_io_{case}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// A file path inside the directory.
    pub(crate) fn file(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

#[cfg(test)]
impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
