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
