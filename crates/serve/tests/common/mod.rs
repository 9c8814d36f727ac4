//! Helpers shared by `mas-serve`'s integration tests.

use std::path::{Path, PathBuf};

/// A test case's scratch directory under the system temp dir. Its name
/// carries the case and the process id, so two concurrent runs of the
/// suite never share state dirs or checkpoint slots, and dropping it
/// removes it with everything written there.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create the (empty) directory for `case`.
    pub fn new(case: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mas_serve_{case}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
