//! Device fleet pooling: lease accounting over a set of virtual devices.
//!
//! The production context the paper comes from is a shared GPU cluster
//! serving many science runs at once. `mas-serve` schedules jobs onto a
//! fixed fleet of virtual devices; this module is the fleet's ledger —
//! which devices are free, which job holds which, and how hot the pool
//! has run — kept here (next to [`crate::DeviceSpec`]) so any scheduler
//! built on `gpusim` shares the same accounting.
//!
//! A [`DevicePool`] hands out [`DeviceLease`]s covering one or more
//! device slots. Leases are plain data (no `Drop` magic): the holder
//! must give them back via [`DevicePool::release`], and a double release
//! or a forged lease is an error, not silent corruption. All methods are
//! `&self` and thread-safe — workers lease and release concurrently.

use crate::spec::DeviceSpec;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Process-wide pool incarnation counter: every [`DevicePool`] gets a
/// unique incarnation, so a lease can never be released into a pool it
/// was not granted by — in particular not across a crash-recovery
/// restart, where serial counters alone would collide (both pools start
/// at serial 1).
static NEXT_INCARNATION: AtomicU64 = AtomicU64::new(1);

/// An exclusive lease on a set of pool devices. Obtained from
/// [`DevicePool::try_lease`]; must be returned with
/// [`DevicePool::release`].
#[derive(Debug)]
pub struct DeviceLease {
    /// The leased device slots (dense indices into the pool).
    ids: Vec<usize>,
    /// Monotonic lease serial (pairs grant/release in logs and guards
    /// against releasing a forged or stale lease).
    serial: u64,
    /// Incarnation of the pool that granted this lease. A release into
    /// any other pool — including the same server's pool after a
    /// crash-recovery restart — is rejected (see
    /// [`DevicePool::release`]).
    incarnation: u64,
}

impl DeviceLease {
    /// Number of devices held.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the lease covers no devices (never produced by a pool).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// Point-in-time pool statistics (see [`DevicePool::stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Total device slots in the pool.
    pub total: usize,
    /// Slots currently free.
    pub free: usize,
    /// Slots currently leased.
    pub busy: usize,
    /// Leases granted over the pool's lifetime.
    pub leases_granted: u64,
    /// Leases released so far.
    pub leases_released: u64,
    /// Peak number of simultaneously leased slots.
    pub peak_busy: usize,
    /// Which incarnation of the pool this snapshot describes (unique per
    /// [`DevicePool`] instance process-wide; restart accounting pairs
    /// grants and releases within one incarnation).
    pub incarnation: u64,
}

struct PoolState {
    /// `free[i]` — is slot `i` available?
    free: Vec<bool>,
    n_free: usize,
    next_serial: u64,
    /// Serials of outstanding leases (release checks membership).
    outstanding: Vec<u64>,
    leases_granted: u64,
    leases_released: u64,
    peak_busy: usize,
    poisoned: bool,
}

/// A fixed fleet of identical virtual devices with exclusive leasing.
///
/// The fleet is homogeneous by construction (one [`DeviceSpec`] cloned
/// per slot). Heterogeneous fleets, on ROADMAP's Deferred list, would
/// turn `spec()` into a per-slot lookup without changing the leasing
/// contract.
pub struct DevicePool {
    spec: DeviceSpec,
    incarnation: u64,
    state: Mutex<PoolState>,
}

impl DevicePool {
    /// A pool of `n_devices` slots of the given spec. Panics on an empty
    /// pool — a fleet of zero devices can schedule nothing.
    pub fn new(spec: DeviceSpec, n_devices: usize) -> Self {
        assert!(n_devices > 0, "device pool must hold at least one device");
        Self {
            spec,
            incarnation: NEXT_INCARNATION.fetch_add(1, Ordering::Relaxed),
            state: Mutex::new(PoolState {
                free: vec![true; n_devices],
                n_free: n_devices,
                next_serial: 1,
                outstanding: Vec::new(),
                leases_granted: 0,
                leases_released: 0,
                peak_busy: 0,
                poisoned: false,
            }),
        }
    }

    /// Lock the ledger, recovering it if a panicking thread poisoned the
    /// mutex. Pool methods never leave the ledger half-updated (every
    /// mutation is complete before any call that could panic), so the
    /// data under a poisoned lock is still consistent — recovering keeps
    /// the whole fleet serving instead of cascading the panic.
    fn locked(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// The spec shared by every slot.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// This pool instance's process-unique incarnation.
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// Currently free slot count.
    pub fn n_free(&self) -> usize {
        self.locked().n_free
    }

    /// Snapshot of the ledger.
    pub fn stats(&self) -> PoolStats {
        let st = self.locked();
        PoolStats {
            total: st.free.len(),
            free: st.n_free,
            busy: st.free.len() - st.n_free,
            leases_granted: st.leases_granted,
            leases_released: st.leases_released,
            peak_busy: st.peak_busy,
            incarnation: self.incarnation,
        }
    }

    /// Try to lease `n` devices without blocking.
    ///
    /// * `Ok(Some(lease))` — granted;
    /// * `Ok(None)` — fewer than `n` slots are free right now (retry
    ///   after a release);
    /// * `Err` — the request can **never** be satisfied (`n` is zero or
    ///   exceeds the pool size, or the pool is closed), so waiting would
    ///   deadlock.
    pub fn try_lease(&self, n: usize) -> Result<Option<DeviceLease>, String> {
        let mut st = self.locked();
        if st.poisoned {
            return Err("device pool closed".into());
        }
        if n == 0 {
            return Err("cannot lease zero devices".into());
        }
        if n > st.free.len() {
            return Err(format!(
                "job needs {n} device(s) but the pool holds only {}",
                st.free.len()
            ));
        }
        if st.n_free < n {
            return Ok(None);
        }
        let mut ids = Vec::with_capacity(n);
        for (i, f) in st.free.iter_mut().enumerate() {
            if *f {
                *f = false;
                ids.push(i);
                if ids.len() == n {
                    break;
                }
            }
        }
        st.n_free -= n;
        let serial = st.next_serial;
        st.next_serial += 1;
        st.outstanding.push(serial);
        st.leases_granted += 1;
        st.peak_busy = st.peak_busy.max(st.free.len() - st.n_free);
        Ok(Some(DeviceLease {
            ids,
            serial,
            incarnation: self.incarnation,
        }))
    }

    /// Return a lease. Rejects forged or already-released leases — and
    /// leases granted by *another pool incarnation* (e.g. held across a
    /// crash-recovery restart) — so a scheduler bug surfaces as an error
    /// instead of double-freeing a device under another job.
    pub fn release(&self, lease: DeviceLease) -> Result<(), String> {
        if lease.incarnation != self.incarnation {
            return Err(format!(
                "lease #{} belongs to pool incarnation {}, not {} — release across a \
                 restart boundary rejected",
                lease.serial, lease.incarnation, self.incarnation
            ));
        }
        let mut st = self.locked();
        let Some(pos) = st.outstanding.iter().position(|&s| s == lease.serial) else {
            return Err(format!(
                "lease #{} is not outstanding (double release or forged lease)",
                lease.serial
            ));
        };
        st.outstanding.swap_remove(pos);
        for &id in &lease.ids {
            debug_assert!(!st.free[id], "slot {id} freed while leased");
            st.free[id] = true;
        }
        st.n_free += lease.ids.len();
        st.leases_released += 1;
        Ok(())
    }

    /// Close the pool: every future lease attempt errors. Outstanding
    /// leases may still be released (the ledger stays consistent for
    /// shutdown accounting).
    pub fn close(&self) {
        self.locked().poisoned = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> DevicePool {
        DevicePool::new(DeviceSpec::a100_40gb(), n)
    }

    #[test]
    fn lease_and_release_roundtrip() {
        let p = pool(4);
        let a = p.try_lease(3).unwrap().expect("3 of 4 free");
        assert_eq!(a.len(), 3);
        assert_eq!(p.n_free(), 1);
        assert!(p.try_lease(2).unwrap().is_none(), "only 1 free");
        let b = p.try_lease(1).unwrap().expect("last slot");
        assert_eq!(p.n_free(), 0);
        p.release(a).unwrap();
        p.release(b).unwrap();
        let s = p.stats();
        assert_eq!(s.free, 4);
        assert_eq!(s.busy, 0);
        assert_eq!(s.leases_granted, 2);
        assert_eq!(s.leases_released, 2);
        assert_eq!(s.peak_busy, 4);
    }

    #[test]
    fn infeasible_requests_error_instead_of_hanging() {
        let p = pool(2);
        assert!(p.try_lease(0).is_err());
        assert!(p.try_lease(3).is_err());
    }

    #[test]
    fn double_release_is_rejected() {
        let p = pool(2);
        let a = p.try_lease(1).unwrap().unwrap();
        let forged = DeviceLease {
            ids: a.ids.clone(),
            serial: a.serial,
            incarnation: a.incarnation,
        };
        p.release(a).unwrap();
        assert!(p.release(forged).is_err());
        assert_eq!(p.n_free(), 2, "slots stay consistent after the reject");
    }

    #[test]
    fn release_across_pool_incarnations_is_rejected() {
        // A lease that survives a server restart (new DevicePool, same
        // shape) must not release into the new pool even if its serial
        // happens to be outstanding there.
        let old = pool(2);
        let stale = old.try_lease(1).unwrap().unwrap();
        let new = pool(2);
        assert_ne!(old.incarnation(), new.incarnation());
        let _current = new.try_lease(1).unwrap().unwrap(); // same serial number as `stale`
        let err = new.release(stale).unwrap_err();
        assert!(err.contains("restart boundary"), "{err}");
        let s = new.stats();
        assert_eq!((s.free, s.busy), (1, 1), "new pool ledger untouched");
        assert_eq!(s.incarnation, new.incarnation());
    }

    #[test]
    fn close_fails_leases_and_still_takes_releases() {
        let p = pool(1);
        let a = p.try_lease(1).unwrap().unwrap();
        p.close();
        // A full pool answers `Ok(None)` (wait); a closed one errors, so
        // a would-be waiter stops instead.
        assert!(p.try_lease(1).is_err(), "closed pool errors, not waits");
        p.release(a).expect("an outstanding lease still releases");
        assert!(p.try_lease(1).is_err(), "closed pool grants nothing");
    }
}
