//! Property-based test of dump integrity checking: a valid dump with any
//! single byte flipped must never pass [`validate_dump`]. This is the
//! guarantee the run supervisor's slot selection leans on — a bit-rotted
//! or torn rotation slot is always detected, never silently restored.

use mas_field::Array3;
use mas_io::{validate_dump, write_fields, DumpHeader};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// This process's scratch directory under the system temp dir, removed
/// with everything written there on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("mas_io_proptest_dump_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn sample_dump_bytes(dir: &Path, step: u64, time: f64, epoch: u64, fill: f64) -> Vec<u8> {
    let p = dir.join(format!("base_{step}_{epoch}.dump"));
    let mut a = Array3::zeros(3, 4, 5);
    let mut b = Array3::zeros(2, 3, 2);
    for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
        *v = fill + i as f64 * 0.125;
    }
    for (i, v) in b.as_mut_slice().iter_mut().enumerate() {
        *v = -fill - i as f64;
    }
    write_fields(&p, DumpHeader { step, time, epoch }, &[("rho", &a), ("temp", &b)]).unwrap();
    std::fs::read(&p).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flip one byte anywhere — magic, header, epoch, names, dims,
    /// payload, or the CRC trailer itself — and validation must fail.
    #[test]
    fn single_flipped_byte_never_validates(
        step in 0u64..1000,
        epoch in 0u64..8,
        fill in -100.0f64..100.0,
        offset_seed in 0usize..usize::MAX,
        bit in 0u8..8,
    ) {
        let dir = Scratch::new();
        let good = sample_dump_bytes(&dir.0, step, 0.5, epoch, fill);
        let offset = offset_seed % good.len();
        let mut corrupt = good.clone();
        corrupt[offset] ^= 1u8 << bit;

        let pc = dir.0.join(format!("flip_{step}_{offset}_{bit}.dump"));
        std::fs::write(&pc, &corrupt).unwrap();
        let result = validate_dump(&pc);

        prop_assert!(
            result.is_err(),
            "flipping bit {bit} of byte {offset}/{} went undetected",
            good.len()
        );
        // And the pristine bytes still validate (the flip, not the
        // plumbing, is what fails).
        let pg = dir.0.join(format!("good_{step}_{offset}_{bit}.dump"));
        std::fs::write(&pg, &good).unwrap();
        let h = validate_dump(&pg);
        prop_assert!(h.is_ok());
        prop_assert_eq!(h.unwrap().epoch, epoch);
    }
}
