//! A small MPMC channel built on `std` (`Mutex<VecDeque>` + `Condvar`).
//!
//! This replaces the external `crossbeam::channel` dependency so the
//! workspace builds fully offline. Only the subset the communicator
//! needs is provided: unbounded FIFO queues, cloneable senders, a
//! receiver that is `Sync` (rank 0 shares the collective-star receiver
//! behind an `Arc`), and disconnect detection on both ends.
//!
//! Semantics match `crossbeam::channel::unbounded` where it matters:
//!
//! * `send` never blocks; it fails only when every receiver is gone;
//! * `recv` blocks until a message arrives and fails only when the
//!   queue is empty **and** every sender is gone;
//! * per-pair FIFO ordering is preserved (single lock per channel).
//!
//! A blocking receive that finds the queue empty spins for up to
//! [`SPIN_BUDGET`] on a lock-free count of queued messages before it
//! parks on the condvar: the peer rank is usually only a few
//! microseconds behind, and a futex sleep plus wake costs several times
//! that on a small virtualised host. Messages are still moved only
//! under the lock, so the spin changes when a receiver wakes, never
//! what it receives.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long a blocking receive that finds its queue empty polls the
/// queued count before it parks. A wait longer than this burns one
/// budget of CPU, so it is sized to the common rank-to-rank lag, not
/// to the longest wait. Measured on `step_small` (2 ranks, 2-vCPU
/// host), see DESIGN.md §4.4.
const SPIN_BUDGET: Duration = Duration::from_micros(20);

/// Polls between two clock reads while spinning; each clock read is
/// followed by a yield so an oversubscribed host hands the CPU to the
/// rank being waited for.
const SPIN_POLLS: u32 = 16;

/// Error returned by [`Sender::send`] when all receivers have hung up.
/// Carries the unsent message back to the caller.
#[derive(Debug)]
pub struct SendError<T>(pub T);

/// Error returned by [`Receiver::recv`] when the channel is empty and
/// all senders have hung up.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// The deadline elapsed with the queue still empty.
    Timeout,
    /// Every sender hung up with the queue empty (same as [`RecvError`]).
    Disconnected,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    avail: Condvar,
    /// `state.queue.len()`, stored under the lock after every push and
    /// pop so a spinning receiver can watch it without the lock. It
    /// publishes no data (the message itself is taken under the lock),
    /// so `Relaxed` suffices.
    queued: AtomicUsize,
}

impl<T> Shared<T> {
    /// Acquire the channel lock, **recovering from poisoning**. The queue
    /// state is a plain `VecDeque` plus two counters — every mutation is
    /// a single push/pop/increment with no intermediate invalid states —
    /// so a guard recovered from a panicking peer is always structurally
    /// valid. Without this, one rank's panic (e.g. an injected fault)
    /// poisons the mutex and every *healthy* peer dies with an opaque
    /// "channel poisoned" panic instead of observing an orderly hang-up.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pop the queue head under the held lock, keeping `queued` in step.
    fn pop(&self, st: &mut State<T>) -> Option<T> {
        let msg = st.queue.pop_front();
        self.queued.store(st.queue.len(), Ordering::Relaxed);
        msg
    }

    /// Poll `queued` without the lock until a message is queued or
    /// `until` passes. The caller re-locks and re-checks either way.
    fn spin(&self, until: Instant) {
        loop {
            for _ in 0..SPIN_POLLS {
                if self.queued.load(Ordering::Relaxed) != 0 {
                    return;
                }
                std::hint::spin_loop();
            }
            if Instant::now() >= until {
                return;
            }
            std::thread::yield_now();
        }
    }
}

/// Create an unbounded FIFO channel; both halves start with one handle.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        avail: Condvar::new(),
        queued: AtomicUsize::new(0),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

/// The sending half; cloneable, `Send + Sync`.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Enqueue `msg`. Never blocks. Fails iff every [`Receiver`] has
    /// been dropped, handing the message back.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.shared.lock();
        if st.receivers == 0 {
            return Err(SendError(msg));
        }
        st.queue.push_back(msg);
        self.shared.queued.store(st.queue.len(), Ordering::Relaxed);
        drop(st);
        self.shared.avail.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Sender {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let n = {
            let mut st = self.shared.lock();
            st.senders -= 1;
            st.senders
        };
        if n == 0 {
            // Wake blocked receivers so they can observe the hang-up.
            self.shared.avail.notify_all();
        }
    }
}

/// The receiving half; cloneable and `Sync`, so it can be shared via
/// `Arc` (multiple consumers race for messages under the channel lock).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Block until a message is available and dequeue it. Fails iff the
    /// queue is empty and every [`Sender`] has been dropped. An empty
    /// queue is first watched for up to `SPIN_BUDGET`, once, before the
    /// call parks.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.shared.lock();
        let mut spun = false;
        loop {
            if let Some(msg) = self.shared.pop(&mut st) {
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            if !spun {
                spun = true;
                drop(st);
                self.shared.spin(Instant::now() + SPIN_BUDGET);
                st = self.shared.lock();
                continue;
            }
            st = self
                .shared
                .avail
                .wait(st)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Dequeue a message if one is immediately available. Never blocks.
    /// Used to drain stale traffic at an epoch fence, where every rank is
    /// quiesced and anything still queued belongs to a dead incarnation.
    pub fn try_recv(&self) -> Option<T> {
        self.shared.pop(&mut self.shared.lock())
    }

    /// Like [`Receiver::recv`] but gives up after `timeout`. Used by the
    /// fault-tolerant communicator so a dropped/lost message surfaces as
    /// a diagnosable timeout instead of an unbounded hang. The spin ends
    /// at the deadline if that comes before `SPIN_BUDGET`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.shared.lock();
        let mut spun = false;
        loop {
            if let Some(msg) = self.shared.pop(&mut st) {
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            if !spun {
                spun = true;
                drop(st);
                self.shared.spin(deadline.min(now + SPIN_BUDGET));
                st = self.shared.lock();
                continue;
            }
            let (guard, _res) = self
                .shared
                .avail
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.lock().receivers -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv(), Ok(i));
        }
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(7).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn send_errors_after_receiver_drops() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let h = s.spawn(move || rx.recv().unwrap());
            std::thread::sleep(std::time::Duration::from_millis(10));
            tx.send(42).unwrap();
            assert_eq!(h.join().unwrap(), 42);
        });
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn message_sent_during_the_spin_is_delivered() {
        let (tx, rx) = unbounded::<u32>();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                start.wait();
                rx.recv()
            });
            start.wait();
            tx.send(5).unwrap();
            assert_eq!(h.join().unwrap(), Ok(5));
        });
        assert_eq!(rx.shared.queued.load(Ordering::Relaxed), 0);
    }

    /// `recv`'s park path is `blocking_recv_wakes_on_send`.
    #[test]
    fn recv_timeout_delivers_a_message_sent_after_the_budget() {
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let h = s.spawn(|| rx.recv_timeout(Duration::from_secs(60)));
            // Far past the spin budget, so the receiver is parked.
            std::thread::sleep(SPIN_BUDGET * 1000);
            tx.send(7).unwrap();
            assert_eq!(h.join().unwrap(), Ok(7));
        });
    }

    #[test]
    fn deadline_inside_the_spin_budget_times_out() {
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::ZERO),
            Err(RecvTimeoutError::Timeout)
        );
        assert_eq!(
            rx.recv_timeout(SPIN_BUDGET / 4),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn last_sender_dropped_during_the_spin_hangs_up() {
        let (tx, rx) = unbounded::<u32>();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                start.wait();
                rx.recv()
            });
            start.wait();
            drop(tx);
            assert_eq!(a.join().unwrap(), Err(RecvError));
        });
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let b = s.spawn(|| {
                start.wait();
                rx.recv_timeout(Duration::from_secs(60))
            });
            start.wait();
            drop(tx);
            assert_eq!(b.join().unwrap(), Err(RecvTimeoutError::Disconnected));
        });
    }

    #[test]
    fn two_producers_deliver_everything_in_per_producer_order() {
        const N: u32 = 10_000;
        let (tx, rx) = unbounded::<(u8, u32)>();
        std::thread::scope(|s| {
            for id in 0..2u8 {
                let tx = tx.clone();
                s.spawn(move || {
                    for n in 0..N {
                        tx.send((id, n)).unwrap();
                    }
                });
            }
            drop(tx);
            let mut next = [0u32; 2];
            // Alternate both blocking receives; each hangs up only once
            // both producers are done and the queue is drained.
            loop {
                let got = if (next[0] + next[1]) % 2 == 0 {
                    rx.recv().ok()
                } else {
                    rx.recv_timeout(Duration::from_secs(60)).ok()
                };
                let Some((id, n)) = got else { break };
                assert_eq!(n, next[id as usize], "producer {id} out of order");
                next[id as usize] += 1;
            }
            assert_eq!(next, [N, N]);
        });
        assert_eq!(rx.shared.queued.load(Ordering::Relaxed), 0);
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn poisoned_channel_still_delivers_and_disconnects() {
        // A thread panics while holding the channel lock: peers must keep
        // working (queue state is always valid) instead of cascading the
        // panic through `.expect("channel poisoned")`.
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        let shared = tx.shared.clone();
        let h = std::thread::spawn(move || {
            let _guard = shared.state.lock().unwrap();
            panic!("injected rank failure");
        });
        assert!(h.join().is_err());
        assert!(tx.shared.state.is_poisoned(), "mutex must actually be poisoned");
        // Healthy side: sends and receives keep working on the recovered
        // guard, then a clean hang-up — no panic cascade.
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn shared_receiver_is_sync() {
        let (tx, rx) = unbounded::<u32>();
        let rx = Arc::new(rx);
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let mut got: Vec<u32> = Vec::new();
        std::thread::scope(|s| {
            let a = {
                let rx = rx.clone();
                s.spawn(move || {
                    let mut v = Vec::new();
                    while let Ok(x) = rx.recv() {
                        v.push(x);
                    }
                    v
                })
            };
            let b = s.spawn(move || {
                let mut v = Vec::new();
                while let Ok(x) = rx.recv() {
                    v.push(x);
                }
                v
            });
            got.extend(a.join().unwrap());
            got.extend(b.join().unwrap());
        });
        got.sort();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
