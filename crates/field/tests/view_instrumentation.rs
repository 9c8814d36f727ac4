//! A `ParView3` decides once, when `Array3::par_view` builds it, whether
//! its accesses are recorded, and keeps that decision for its lifetime.
//!
//! The arm and capture counters are process-wide, so the three cases run
//! in one `#[test]` in their own test binary: no sibling test can arm or
//! capture while they run.

use mas_field::{
    arm_captures, capture_begin, capture_end, disarm_captures, Array3, ParView3, ViewAccess,
};

/// One `get`, `set`, `row` (2 elements) and `row_mut` (2 elements)
/// through a view of `a` built by `build`, under a capture that begins
/// after the view exists. Returns the capture log.
fn touch_all(a: &mut Array3, build: impl FnOnce(&mut Array3) -> ParView3<'_>) -> Vec<ViewAccess> {
    let v = build(a);
    capture_begin();
    let _ = v.get(1, 1, 1);
    v.set(1, 1, 2, 1.0);
    let _ = v.row(0, 2, 0, 1);
    v.row_mut(0, 2, 2, 2)[1] = 2.0;
    capture_end()
}

#[test]
fn views_keep_the_instrumentation_decision_they_were_built_with() {
    let mut a = Array3::zeros(2, 2, 2);
    // get -> 1 read; set -> 1 write; row -> 2 reads; row_mut -> 2 reads + 2 writes.
    let every_access = 1 + 1 + 2 + 4;

    // Built with nothing armed and no capture live: never records.
    let log = touch_all(&mut a, |a| a.par_view());
    assert!(log.is_empty(), "an uninstrumented view recorded {log:?}");

    // Built while armed: records every access, even after disarming.
    let log = touch_all(&mut a, |a| {
        arm_captures();
        let v = a.par_view();
        disarm_captures();
        v
    });
    assert_eq!(log.len(), every_access, "{log:?}");
    assert_eq!(log.iter().filter(|r| r.write).count(), 3, "{log:?}");

    // Built while a capture is live: records.
    capture_begin();
    let v = a.par_view();
    v.set(0, 0, 0, 3.0);
    let _ = v.row(0, 2, 1, 0);
    let log = capture_end();
    assert_eq!(log.len(), 3, "{log:?}");
    assert!(log[0].write && !log[1].write && !log[2].write, "{log:?}");
    assert_eq!(a.get(0, 0, 0), 3.0);
}
