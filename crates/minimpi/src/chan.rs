//! A small MPMC channel built on `std` (`Mutex<VecDeque>` + `Condvar`).
//!
//! This replaces the external `crossbeam::channel` dependency so the
//! workspace builds fully offline. Only the subset the communicator
//! needs is provided: unbounded FIFO queues, cloneable senders, and a
//! receiver that is `Sync` (rank 0 shares the collective-star receiver
//! behind an `Arc`).
//!
//! * `send` never blocks and never fails;
//! * `recv` blocks until a message arrives, its timeout passes, or — at
//!   the moment it would park — its `stop` check names a reason no
//!   message can come (the world's exit record, see `WorldCtl`);
//! * per-pair FIFO ordering is preserved (single lock per channel).
//!
//! The channel does not count its handles: whether the other end is
//! still alive is world state, and [`Receiver::wake`] is how the world
//! tells a parked receiver to look at it again.
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

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    avail: Condvar,
    /// `queue.len()`, stored under the lock after every push and pop so
    /// a spinning receiver can watch it without the lock. It publishes
    /// no data (the message itself is taken under the lock), so
    /// `Relaxed` suffices.
    queued: AtomicUsize,
}

impl<T> Shared<T> {
    /// Acquire the channel lock, **recovering from poisoning**. Every
    /// mutation is a single push or pop with no intermediate invalid
    /// state, so a guard recovered from a panicking peer is always
    /// structurally valid. Without this, one rank's panic (e.g. an
    /// injected fault) poisons the mutex and every *healthy* peer dies
    /// with an opaque "channel poisoned" panic instead of the typed
    /// failure the world's exit record gives it.
    fn lock(&self) -> MutexGuard<'_, VecDeque<T>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pop the queue head under the held lock, keeping `queued` in step.
    fn pop(&self, q: &mut VecDeque<T>) -> Option<T> {
        let msg = q.pop_front();
        self.queued.store(q.len(), Ordering::Relaxed);
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

/// Create an unbounded FIFO channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
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
    /// Enqueue `msg`. Never blocks.
    pub fn send(&self, msg: T) {
        let mut q = self.shared.lock();
        q.push_back(msg);
        self.shared.queued.store(q.len(), Ordering::Relaxed);
        drop(q);
        self.shared.avail.notify_one();
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            shared: self.shared.clone(),
        }
    }
}

/// The receiving half; cloneable and `Sync`, so it can be shared via
/// `Arc` (multiple consumers race for messages under the channel lock).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Block until a message is available and dequeue it. An empty queue
    /// is first watched for up to `SPIN_BUDGET` (or until the timeout,
    /// if that comes first), once, before the call parks.
    ///
    /// Gives up with `Err(None)` when `timeout` passes with the queue
    /// still empty, and with `Err(Some(e))` when the receive is about to
    /// park and `stop` returns `Some(e)`. `stop` runs under the channel
    /// lock and only on that slow path, so a waker that changes what it
    /// reads and then calls [`Receiver::wake`] cannot be missed.
    pub fn recv<E>(
        &self,
        timeout: Option<Duration>,
        stop: impl Fn() -> Option<E>,
    ) -> Result<T, Option<E>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut q = self.shared.lock();
        let mut spun = false;
        loop {
            if let Some(msg) = self.shared.pop(&mut q) {
                return Ok(msg);
            }
            let now = Instant::now();
            if deadline.is_some_and(|d| now >= d) {
                return Err(None);
            }
            if !spun {
                spun = true;
                drop(q);
                let budget = now + SPIN_BUDGET;
                self.shared.spin(deadline.map_or(budget, |d| d.min(budget)));
                q = self.shared.lock();
                continue;
            }
            if let Some(e) = stop() {
                return Err(Some(e));
            }
            q = match deadline {
                None => self.shared.avail.wait(q).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let waited = self.shared.avail.wait_timeout(q, d - now);
                    waited.unwrap_or_else(|e| e.into_inner()).0
                }
            };
        }
    }

    /// Dequeue a message if one is immediately available. Never blocks.
    /// Used to drain stale traffic at an epoch fence, where every rank is
    /// quiesced and anything still queued belongs to a dead incarnation.
    pub fn try_recv(&self) -> Option<T> {
        self.shared.pop(&mut self.shared.lock())
    }

    /// Wake every receive parked on this channel, so each re-runs its
    /// `stop` check. Notifies under the channel lock: a receive between
    /// its check and its park holds that lock, so it parks first and
    /// then wakes.
    pub fn wake(&self) {
        let _q = self.shared.lock();
        self.shared.avail.notify_all();
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            shared: self.shared.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// The `stop` check of a receive that waits for nothing but a message.
    fn never() -> Option<()> {
        None
    }

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i);
        }
        for i in 0..10 {
            assert_eq!(rx.recv(None, never), Ok(i));
        }
    }

    #[test]
    fn queued_messages_are_delivered_before_a_stop() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(7);
        assert_eq!(rx.recv(None, || Some("gone")), Ok(7));
        assert_eq!(rx.recv(None, || Some("gone")), Err(Some("gone")));
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let h = s.spawn(move || rx.recv(None, never).unwrap());
            std::thread::sleep(std::time::Duration::from_millis(10));
            tx.send(42);
            assert_eq!(h.join().unwrap(), 42);
        });
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded::<u32>();
        let ms5 = Some(Duration::from_millis(5));
        assert_eq!(rx.recv(ms5, never), Err(None));
        tx.send(9);
        assert_eq!(rx.recv(ms5, never), Ok(9));
    }

    #[test]
    fn message_sent_during_the_spin_is_delivered() {
        let (tx, rx) = unbounded::<u32>();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let h = s.spawn(|| {
                start.wait();
                rx.recv(None, never)
            });
            start.wait();
            tx.send(5);
            assert_eq!(h.join().unwrap(), Ok(5));
        });
        assert_eq!(rx.shared.queued.load(Ordering::Relaxed), 0);
    }

    /// The untimed park path is `blocking_recv_wakes_on_send`.
    #[test]
    fn recv_timeout_delivers_a_message_sent_after_the_budget() {
        let (tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let h = s.spawn(|| rx.recv(Some(Duration::from_secs(60)), never));
            // Far past the spin budget, so the receiver is parked.
            std::thread::sleep(SPIN_BUDGET * 1000);
            tx.send(7);
            assert_eq!(h.join().unwrap(), Ok(7));
        });
    }

    #[test]
    fn deadline_inside_the_spin_budget_times_out() {
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(rx.recv(Some(Duration::ZERO), never), Err(None));
        assert_eq!(rx.recv(Some(SPIN_BUDGET / 4), never), Err(None));
    }

    #[test]
    fn stop_is_checked_before_every_park() {
        // A reason recorded before the receive would park ends it with no
        // wake at all; one recorded later needs the recorder's wake,
        // which cannot be lost whether the receive is spinning (it checks
        // once the spin ends) or parked (the wake reaches it).
        let gone = AtomicBool::new(true);
        let stop = || gone.load(Ordering::SeqCst).then_some("gone");
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(rx.recv(None, stop), Err(Some("gone")));
        assert_eq!(rx.recv(Some(Duration::from_secs(60)), stop), Err(Some("gone")));
        gone.store(false, Ordering::SeqCst);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            let a = s.spawn(|| {
                start.wait();
                rx.recv(None, stop)
            });
            start.wait();
            gone.store(true, Ordering::SeqCst);
            rx.wake();
            assert_eq!(a.join().unwrap(), Err(Some("gone")));
        });
    }

    #[test]
    fn wake_reruns_the_stop_check_of_a_parked_receive() {
        let gone = AtomicBool::new(false);
        let (_tx, rx) = unbounded::<u32>();
        std::thread::scope(|s| {
            let h = s.spawn(|| rx.recv(None, || gone.load(Ordering::SeqCst).then_some("gone")));
            // Far past the spin budget, so the receiver is parked.
            std::thread::sleep(SPIN_BUDGET * 1000);
            gone.store(true, Ordering::SeqCst);
            rx.wake();
            assert_eq!(h.join().unwrap(), Err(Some("gone")));
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
                        tx.send((id, n));
                    }
                });
            }
            let mut next = [0u32; 2];
            // Alternate the untimed and the timed receive.
            for i in 0..2 * N {
                let timeout = (i % 2 == 1).then(|| Duration::from_secs(60));
                let (id, n) = rx.recv(timeout, never).expect("a message");
                assert_eq!(n, next[id as usize], "producer {id} out of order");
                next[id as usize] += 1;
            }
            assert_eq!(next, [N, N]);
        });
        assert_eq!(rx.shared.queued.load(Ordering::Relaxed), 0);
        assert_eq!(rx.try_recv(), None);
    }

    #[test]
    fn poisoned_channel_still_delivers() {
        // A thread panics while holding the channel lock: peers must keep
        // working (queue state is always valid) instead of cascading the
        // panic through `.expect("channel poisoned")`.
        let (tx, rx) = unbounded::<u32>();
        tx.send(1);
        let shared = tx.shared.clone();
        let h = std::thread::spawn(move || {
            let _guard = shared.queue.lock().unwrap();
            panic!("injected rank failure");
        });
        assert!(h.join().is_err());
        assert!(tx.shared.queue.is_poisoned(), "mutex must actually be poisoned");
        // Healthy side: sends, receives and wakes keep working on the
        // recovered guard — no panic cascade.
        tx.send(2);
        rx.wake();
        assert_eq!(rx.recv(None, never), Ok(1));
        assert_eq!(rx.recv(None, never), Ok(2));
        assert_eq!(rx.recv(None, || Some("gone")), Err(Some("gone")));
    }

    #[test]
    fn shared_receiver_is_sync() {
        let (tx, rx) = unbounded::<u32>();
        let rx = Arc::new(rx);
        for i in 0..4 {
            tx.send(i);
        }
        // Everything is queued before either consumer starts, so each
        // drains until the zero timeout finds the queue empty.
        let drain = |rx: &Receiver<u32>| {
            let mut v = Vec::new();
            while let Ok(x) = rx.recv(Some(Duration::ZERO), never) {
                v.push(x);
            }
            v
        };
        let mut got: Vec<u32> = Vec::new();
        std::thread::scope(|s| {
            let a = {
                let rx = rx.clone();
                s.spawn(move || drain(&rx))
            };
            let b = s.spawn(|| drain(&rx));
            got.extend(a.join().unwrap());
            got.extend(b.join().unwrap());
        });
        got.sort();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }
}
