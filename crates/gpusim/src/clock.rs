//! The per-rank virtual clock.
//!
//! All performance accounting in `gpusim`/`minimpi` advances a simple f64
//! microsecond counter. The clock is *virtual*: it has no relation to real
//! wall time, which is why an 8-GPU, 200-minute production run can be
//! modeled in seconds on a laptop while the physics kernels still execute
//! for real.

/// A monotonically non-decreasing virtual time counter (microseconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VirtualClock {
    now_us: f64,
}

impl VirtualClock {
    /// A clock starting at t = 0.
    pub fn new() -> Self {
        Self { now_us: 0.0 }
    }

    /// Current virtual time in microseconds.
    pub fn now_us(&self) -> f64 {
        self.now_us
    }

    /// Advance by `dt` microseconds; returns the new time.
    ///
    /// Panics in debug builds if `dt` is negative or NaN — a negative
    /// charge always indicates a cost-model bug.
    pub fn advance(&mut self, dt_us: f64) -> f64 {
        debug_assert!(dt_us >= 0.0 && dt_us.is_finite(), "bad time charge {dt_us}");
        self.now_us += dt_us;
        self.now_us
    }

    /// Reset to zero (between benchmark configurations).
    pub fn reset(&mut self) {
        self.now_us = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let mut c = VirtualClock::new();
        c.advance(5.0);
        c.advance(2.5);
        assert_eq!(c.now_us(), 7.5);
    }

    #[test]
    fn reset_zeroes() {
        let mut c = VirtualClock::new();
        c.advance(3.0);
        c.reset();
        assert_eq!(c.now_us(), 0.0);
    }
}
