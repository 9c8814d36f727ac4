//! World construction: spawn one thread per rank, wire up the channels.
//!
//! One execution mode: [`World::run_resilient`] runs `f` on every rank
//! and, ULFM-style, respawns a rank whose closure panics as a fresh
//! incarnation wired into the same mesh, up to a respawn budget.
//! Survivors and the replacement meet at [`Comm::epoch_fence`], which
//! drains dead-incarnation traffic and advances the communicator epoch
//! so stragglers are rejected. [`World::run`] is its budget-0 form that
//! re-raises the first rank death.
//!
//! The monitor records every rank's exit and wakes every parked wait: a
//! death revokes the world (ULFM's `MPI_Comm_revoke`) until the fence
//! that admits the replacement, and a return fails the waits that need
//! the returned rank. A panic is the only death the world detects: a
//! rank that hangs inside its closure is never declared dead, and the
//! world waits for it.

use crate::chan::{unbounded, Receiver, Sender};
use crate::comm::{BcastMsg, Comm, CommFailure, Exit, Msg, RootMsg, WorldCtl};
use std::sync::Arc;

/// One rank's panic, captured as data instead of cascading: which rank
/// died and what its panic payload said.
#[derive(Clone, Debug)]
pub struct RankPanic {
    /// The rank whose closure panicked.
    pub rank: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim,
    /// [`CommFailure`] payloads via `Display`, anything else a
    /// placeholder).
    pub message: String,
}

impl std::fmt::Display for RankPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "rank {} panicked: {}", self.rank, self.message)
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(c) = payload.downcast_ref::<CommFailure>() {
        c.to_string()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn rank_panic(rank: usize, payload: &(dyn std::any::Any + Send)) -> RankPanic {
    RankPanic {
        rank,
        message: panic_message(payload),
    }
}

/// One respawn performed by the world.
#[derive(Clone, Debug)]
pub struct RespawnEvent {
    /// The rank that was replaced.
    pub rank: usize,
    /// The incarnation number of the replacement (1 = first respawn).
    pub incarnation: usize,
    /// The communicator epoch the dead incarnation was running under.
    pub epoch: u64,
    /// Why the rank was declared dead (its panic message).
    pub cause: String,
}

/// What a resilient run produced: per-rank results (from the final
/// incarnation of each rank), the respawn history, and envelope-level
/// counters.
#[derive(Debug)]
pub struct ResilientReport<T> {
    /// Final per-rank results in rank order.
    pub results: Vec<Result<T, RankPanic>>,
    /// Every respawn performed, in order of death.
    pub respawns: Vec<RespawnEvent>,
    /// Final communicator epoch (number of completed fences).
    pub epoch: u64,
    /// Stale-epoch envelopes rejected or drained, world total.
    pub stale_rejected: u64,
    /// The rank whose terminal death the monitor recorded first, if any:
    /// the cause, where the later deaths may be peers failing on it.
    pub first_death: Option<usize>,
}

/// The full channel mesh plus the shared control block, held by the
/// monitor for the whole run: it wires a replacement incarnation into
/// the mesh (both channel halves are cloneable) and wakes every parked
/// receive when a rank exits.
struct Endpoints {
    n: usize,
    /// `senders[src][dst]`.
    senders: Vec<Vec<Sender<Msg>>>,
    /// `receivers[dst][src]` (master clones).
    receivers: Vec<Vec<Receiver<Msg>>>,
    to_root_tx: Sender<RootMsg>,
    to_root_rx: Arc<Receiver<RootMsg>>,
    root_to_rank_txs: Vec<Sender<BcastMsg>>,
    root_to_rank_rxs: Vec<Receiver<BcastMsg>>,
    ctl: Arc<WorldCtl>,
}

impl Endpoints {
    fn build(n: usize) -> Self {
        // Point-to-point mesh: channel[src][dst].
        let mut senders: Vec<Vec<Sender<Msg>>> = Vec::with_capacity(n);
        let mut receivers: Vec<Vec<Option<Receiver<Msg>>>> =
            (0..n).map(|_| (0..n).map(|_| None).collect()).collect();
        for src in 0..n {
            let mut row = Vec::with_capacity(n);
            for dst_row in receivers.iter_mut() {
                let (tx, rx) = unbounded();
                row.push(tx);
                dst_row[src] = Some(rx);
            }
            senders.push(row);
        }
        let receivers = receivers
            .into_iter()
            .map(|row| row.into_iter().map(|o| o.expect("receiver wired")).collect())
            .collect();

        // Collective star: ranks → root, root → ranks.
        let (to_root_tx, to_root_rx) = unbounded();
        let to_root_rx = Arc::new(to_root_rx);
        let mut root_to_rank_txs = Vec::with_capacity(n);
        let mut root_to_rank_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded();
            root_to_rank_txs.push(tx);
            root_to_rank_rxs.push(rx);
        }

        Self {
            n,
            senders,
            receivers,
            to_root_tx,
            to_root_rx,
            root_to_rank_txs,
            root_to_rank_rxs,
            ctl: WorldCtl::new(n),
        }
    }

    fn make_comm(&self, rank: usize, incarnation: usize) -> Comm {
        Comm::new(
            rank,
            self.n,
            incarnation,
            self.senders[rank].clone(),
            self.receivers[rank].to_vec(),
            self.to_root_tx.clone(),
            if rank == 0 {
                Some(self.to_root_rx.clone())
            } else {
                None
            },
            self.root_to_rank_rxs[rank].clone(),
            if rank == 0 {
                self.root_to_rank_txs.clone()
            } else {
                Vec::new()
            },
            self.ctl.clone(),
        )
    }

    /// Record how `rank` ended, then wake every parked receive and fence
    /// waiter so each re-checks the record.
    fn record(&self, rank: usize, exit: Exit) {
        self.ctl.exits()[rank] = exit;
        self.receivers.iter().flatten().for_each(Receiver::wake);
        self.root_to_rank_rxs.iter().for_each(Receiver::wake);
        self.to_root_rx.wake();
        self.ctl.fence.wake();
    }
}

/// Factory for rank teams.
pub struct World;

impl World {
    /// Run `f(comm)` on `n_ranks` threads; returns the per-rank results in
    /// rank order. This is [`World::run_resilient`] with no respawns, and
    /// the first rank death is re-raised in the caller (the moral
    /// equivalent of `MPI_Abort`): the cause, not a peer's "rank N died".
    pub fn run<T, F>(n_ranks: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        let report = World::run_resilient(n_ranks, 0, f);
        if let Some(Err(p)) = report.first_death.map(|rank| &report.results[rank]) {
            panic!("{p}");
        }
        report.results.into_iter().map(|r| r.expect("no rank died")).collect()
    }

    /// Run `f(comm)` on `n_ranks` threads and **respawn a rank whose
    /// closure panics**: the monitor records the death and spawns a
    /// replacement running the same closure — `f` can tell it is a
    /// replacement via [`Comm::incarnation`]. Recovery is cooperative:
    /// survivors and the replacement must meet at [`Comm::epoch_fence`],
    /// which drains stale traffic and advances the epoch.
    ///
    /// Respawns stop after `max_respawns`; further deaths become terminal
    /// per-rank [`RankPanic`] records in the report, next to the
    /// survivors' results. Every death revokes the world at once, so the
    /// survivors' next parking receive fails with a typed
    /// [`CommFailure`] instead of waiting for a deadline; a terminal
    /// death also fails their fence. (The channel mutexes recover from
    /// poisoning, so that is never a `"channel poisoned"` cascade.)
    ///
    /// A panic is the only death the world sees. A rank that hangs inside
    /// `f` is never declared dead, and the world does not return until
    /// its thread exits.
    pub fn run_resilient<T, F>(n_ranks: usize, max_respawns: usize, f: F) -> ResilientReport<T>
    where
        T: Send,
        F: Fn(Comm) -> T + Sync,
    {
        assert!(n_ranks >= 1, "need at least one rank");
        let endpoints = Endpoints::build(n_ranks);
        let ctl = endpoints.ctl.clone();
        let f = &f;

        let mut results: Vec<Option<Result<T, RankPanic>>> = (0..n_ranks).map(|_| None).collect();
        let mut respawns: Vec<RespawnEvent> = Vec::new();
        let mut first_death = None;

        type Done<T> = (usize, Result<T, Box<dyn std::any::Any + Send>>);
        let (done_tx, done_rx) = unbounded::<Done<T>>();

        std::thread::scope(|s| {
            let spawn_worker = |rank: usize, comm: Comm| {
                let done = done_tx.clone();
                s.spawn(move || {
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(comm)));
                    // Never unwind out of a scoped thread: the result —
                    // panic payload included — travels by channel.
                    done.send((rank, r));
                })
            };

            let mut workers: Vec<_> = (0..n_ranks)
                .map(|rank| spawn_worker(rank, endpoints.make_comm(rank, 0)))
                .collect();

            let mut incarnation = vec![0usize; n_ranks];
            let mut pending = n_ranks;
            while pending > 0 {
                let (rank, res) = done_rx.recv(None, || None::<()>).expect("every rank reports");
                let payload = match res {
                    Ok(v) => {
                        endpoints.record(rank, Exit::Left);
                        results[rank] = Some(Ok(v));
                        pending -= 1;
                        continue;
                    }
                    Err(payload) => payload,
                };
                let cause = rank_panic(rank, payload.as_ref());
                let epoch = ctl.epoch.load(std::sync::atomic::Ordering::SeqCst);
                let replaced = respawns.len() < max_respawns;
                // Recorded before a replacement exists, so the fence that
                // admits it always sees the death first.
                endpoints.record(rank, Exit::Died { epoch, replaced });
                if replaced {
                    incarnation[rank] += 1;
                    respawns.push(RespawnEvent {
                        rank,
                        incarnation: incarnation[rank],
                        epoch,
                        cause: cause.message,
                    });
                    workers.push(spawn_worker(rank, endpoints.make_comm(rank, incarnation[rank])));
                } else {
                    first_death.get_or_insert(rank);
                    results[rank] = Some(Err(cause));
                    pending -= 1;
                }
            }
            // Join each worker's OS thread before returning. The scope's
            // implicit join waits only for the closures, so a thread can
            // still be exiting when the caller starts its next world, and
            // the new threads then cannot reuse its malloc arena. Without
            // this, back-to-back 2-rank supervised runs (perfbench
            // `step_small`, 2-vCPU x86-64 host, glibc) reached a peak RSS
            // of 17.0-17.4 MB instead of 11.6-12.0 MB.
            for w in workers {
                w.join().expect("a worker catches its own panic");
            }
        });

        use std::sync::atomic::Ordering;
        ResilientReport {
            results: results.into_iter().map(|o| o.expect("rank result")).collect(),
            respawns,
            epoch: ctl.epoch.load(Ordering::SeqCst),
            stale_rejected: ctl.stale_rejected.load(Ordering::SeqCst),
            first_death,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{NetFault, NetPath, RecvFailure, ReduceOp};
    use crate::scaled_ms;
    use gpusim::{DataMode, DeviceContext, DeviceSpec, Phase};
    use std::panic::AssertUnwindSafe;
    use std::time::{Duration, Instant};

    fn ctx(rank: usize) -> DeviceContext {
        let mut spec = DeviceSpec::a100_40gb();
        spec.jitter_sigma = 0.0;
        let mut c = DeviceContext::new(spec, DataMode::Manual, rank, 1);
        c.set_phase(Phase::Compute);
        c
    }

    /// The typed failure `body` raises through [`Comm::fail`].
    fn comm_failure(body: impl FnOnce()) -> RecvFailure {
        let payload = std::panic::catch_unwind(AssertUnwindSafe(body)).expect_err("a failure");
        payload.downcast::<CommFailure>().expect("a CommFailure payload").failure
    }

    /// Rank `dead` panics while its peer waits in `allreduce` (rank 0
    /// gathering, rank 1 waiting for the broadcast) under a 5 s receive
    /// deadline. At budget 0 the survivor returns the failure it got; at
    /// budget 1 the survivor and the replacement meet at the fence and
    /// finish the allreduce. Also returns how long the world took.
    fn death_during_allreduce(
        dead: usize,
        budget: usize,
    ) -> (ResilientReport<Result<f64, RecvFailure>>, Duration) {
        let t0 = Instant::now();
        let report = World::run_resilient(2, budget, |comm| {
            let mut c = ctx(comm.rank());
            comm.set_recv_deadline(Some(scaled_ms(5000)));
            if comm.incarnation() == 0 {
                if comm.rank() == dead {
                    panic!("rank {dead} lost");
                }
                let failure = comm_failure(|| comm.allreduce(ReduceOp::Sum, &mut [1.0], &mut c));
                if budget == 0 {
                    return Err(failure);
                }
            }
            comm.epoch_fence(scaled_ms(5000))?;
            let mut v = [comm.rank() as f64 + 1.0];
            comm.allreduce(ReduceOp::Sum, &mut v, &mut c);
            Ok(v[0])
        });
        (report, t0.elapsed())
    }

    #[test]
    fn peer_death_in_allreduce_fails_the_survivor_at_once() {
        for dead in [1, 0] {
            let (out, took) = death_during_allreduce(dead, 0);
            let survivor = 1 - dead;
            match out.results[survivor].as_ref().unwrap() {
                Err(RecvFailure::PeerDied { rank, epoch: 0 }) if *rank == dead => {}
                other => panic!("rank {dead} died; survivor got {other:?}"),
            }
            let p = out.results[dead].as_ref().unwrap_err();
            assert!(p.message.contains("lost"), "{}", p.message);
            assert!(took < scaled_ms(1000), "rank {dead} died; the world took {took:?}");
        }
    }

    #[test]
    fn peer_death_in_allreduce_recovers_at_the_fence() {
        for dead in [1, 0] {
            let (out, took) = death_during_allreduce(dead, 1);
            for (rank, r) in out.results.iter().enumerate() {
                assert_eq!(r.as_ref().unwrap(), &Ok(3.0), "rank {dead} died; rank {rank}");
            }
            assert_eq!(out.respawns.len(), 1);
            assert_eq!(out.epoch, 1);
            assert!(took < scaled_ms(1000), "rank {dead} died; the world took {took:?}");
        }
    }

    #[test]
    fn world_run_reraises_the_death_not_the_survivors_failure() {
        let r = std::panic::catch_unwind(|| {
            World::run(2, |comm| {
                let mut c = ctx(comm.rank());
                if comm.rank() == 1 {
                    panic!("boom");
                }
                comm.allreduce(ReduceOp::Sum, &mut [1.0], &mut c);
            })
        });
        let msg = panic_message(r.expect_err("World::run re-raises").as_ref());
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn fence_fails_at_once_when_a_rank_has_returned() {
        let t0 = Instant::now();
        let res = World::run_resilient(2, 0, |comm| match comm.rank() {
            0 => comm.epoch_fence(scaled_ms(5000)),
            _ => Ok(0),
        })
        .results;
        match res[0].as_ref().unwrap() {
            Err(RecvFailure::PeerLeft { rank: 1 }) => {}
            other => panic!("want the returned rank named, got {other:?}"),
        }
        assert!(t0.elapsed() < scaled_ms(1000), "{:?}", t0.elapsed());
    }

    #[test]
    fn receive_from_a_returned_rank_delivers_what_it_sent_then_fails() {
        let res = World::run_resilient(2, 0, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 1 {
                comm.send(0, 5, vec![7.0], NetPath::DeviceP2P, &c);
                return (0.0, None);
            }
            let got = comm.recv(1, 5, &mut c)[0];
            (got, Some(comm_failure(|| drop(comm.recv(1, 6, &mut c)))))
        })
        .results;
        let (got, failure) = res[0].as_ref().unwrap();
        assert_eq!(*got, 7.0);
        assert_eq!(failure, &Some(RecvFailure::PeerLeft { rank: 1 }));
    }

    #[test]
    fn ring_exchange_delivers_neighbor_data() {
        let vals = World::run(4, |comm| {
            let mut c = ctx(comm.rank());
            let (lo, hi) = comm.phi_neighbors();
            comm.send(hi, 7, vec![comm.rank() as f64], NetPath::DeviceP2P, &c);
            let got = comm.recv(lo, 7, &mut c);
            got[0]
        });
        assert_eq!(vals, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn self_send_works_on_one_rank() {
        let vals = World::run(1, |comm| {
            let mut c = ctx(0);
            let (lo, hi) = comm.phi_neighbors();
            assert_eq!((lo, hi), (0, 0));
            comm.send(hi, 1, vec![42.0], NetPath::DeviceP2P, &c);
            comm.recv(lo, 1, &mut c)[0]
        });
        assert_eq!(vals, vec![42.0]);
    }

    #[test]
    fn allreduce_sum_min_max() {
        let vals = World::run(3, |comm| {
            let mut c = ctx(comm.rank());
            let mut v = [comm.rank() as f64 + 1.0, -(comm.rank() as f64)];
            comm.allreduce(ReduceOp::Sum, &mut v, &mut c);
            let mut w = [comm.rank() as f64];
            comm.allreduce(ReduceOp::Min, &mut w, &mut c);
            let mut x = [comm.rank() as f64];
            comm.allreduce(ReduceOp::Max, &mut x, &mut c);
            (v[0], v[1], w[0], x[0])
        });
        for &(s, n, mn, mx) in &vals {
            assert_eq!(s, 6.0);
            assert_eq!(n, -3.0);
            assert_eq!(mn, 0.0);
            assert_eq!(mx, 2.0);
        }
    }

    #[test]
    fn allreduce_synchronizes_clocks_and_books_mpi_time() {
        let walls = World::run(2, |comm| {
            let mut c = ctx(comm.rank());
            // Rank 1 is "ahead" by 100 µs of compute.
            if comm.rank() == 1 {
                c.charge(100.0, gpusim::TimeCategory::Kernel, "imbalance");
            }
            let mut v = [1.0];
            comm.allreduce(ReduceOp::Sum, &mut v, &mut c);
            (
                c.clock.now_us(),
                c.prof.phase_total_us(Phase::Mpi),
            )
        });
        // Both ranks end at the same virtual time.
        assert!((walls[0].0 - walls[1].0).abs() < 1e-9);
        // Rank 0 waited ~100 µs; rank 1 only paid the collective cost.
        assert!(walls[0].1 > walls[1].1 + 90.0);
    }

    #[test]
    fn recv_books_transfer_time_by_path() {
        let res = World::run(2, |comm| {
            let mut c = ctx(comm.rank());
            let peer = 1 - comm.rank();
            let data = vec![0.0; 1 << 16]; // 512 KiB
            comm.send(peer, 3, data, NetPath::DeviceP2P, &c);
            let _ = comm.recv(peer, 3, &mut c);
            c.prof.cat_total_us(gpusim::TimeCategory::P2P)
        });
        let bytes = ((1 << 16) * 8) as f64;
        let expect = DeviceSpec::a100_40gb().p2p_time_us(bytes);
        for &p2p in &res {
            assert!((p2p - expect).abs() < 1e-6, "p2p={p2p} expect={expect}");
        }
    }

    #[test]
    fn host_path_is_slower_than_p2p() {
        let run = |path| {
            World::run(2, move |comm| {
                let mut c = ctx(comm.rank());
                let peer = 1 - comm.rank();
                comm.send(peer, 9, vec![0.0; 4096], path, &c);
                let _ = comm.recv(peer, 9, &mut c);
                c.prof.phase_total_us(Phase::Mpi)
            })[0]
        };
        assert!(run(NetPath::Host) > run(NetPath::DeviceP2P));
    }

    #[test]
    fn barrier_completes() {
        let n = World::run(4, |comm| {
            let mut c = ctx(comm.rank());
            comm.barrier(&mut c);
            comm.barrier(&mut c);
            1usize
        });
        assert_eq!(n.iter().sum::<usize>(), 4);
    }

    #[test]
    fn budget_zero_world_records_per_rank_failures() {
        let res = World::run_resilient(3, 0, |comm| {
            if comm.rank() == 1 {
                panic!("injected fault on rank 1");
            }
            comm.rank() * 10
        })
        .results;
        assert_eq!(res[0].as_ref().unwrap(), &0);
        assert_eq!(res[2].as_ref().unwrap(), &20);
        let p = res[1].as_ref().unwrap_err();
        assert_eq!(p.rank, 1);
        assert!(p.message.contains("injected fault"), "{}", p.message);
    }

    #[test]
    fn rank_death_surfaces_as_hang_up_not_poison_on_peers() {
        // Rank 1 dies before sending; rank 0 blocks on the recv and must
        // observe the typed death (the world's record of the hang-up),
        // never a "channel poisoned" cascade.
        let res = World::run_resilient(2, 0, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 1 {
                panic!("rank 1 died");
            }
            comm_failure(|| drop(comm.recv(1, 5, &mut c)))
        })
        .results;
        let p0 = res[0].as_ref().unwrap();
        assert_eq!(p0, &RecvFailure::PeerDied { rank: 1, epoch: 0 });
        let p1 = res[1].as_ref().unwrap_err();
        assert!(p1.message.contains("rank 1 died"));
    }

    /// Rank 0 drops its one message to rank 1, whose blocking receive
    /// fails at a 50 ms deadline; returns that failure. De-flaked: rank 0
    /// stays alive by *blocking* on a handshake from rank 1 (no sleeps to
    /// race against), and the deadline scales with MAS_TEST_TIME_SCALE
    /// for loaded CI machines.
    fn dropped_message_failure() -> RecvFailure {
        let res = World::run_resilient(2, 0, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 0 {
                comm.arm_net_fault(NetFault::Drop);
                comm.send(1, 4, vec![1.0], NetPath::DeviceP2P, &c);
                // Block until rank 1 has finished timing out: its failure
                // must be a timeout (lost message from a live peer).
                let _ = comm.recv(1, 5, &mut c);
                None
            } else {
                comm.set_recv_deadline(Some(scaled_ms(50)));
                let failure = comm_failure(|| drop(comm.recv(0, 4, &mut c)));
                comm.set_recv_deadline(None);
                comm.send(0, 5, vec![], NetPath::DeviceP2P, &c);
                Some(failure)
            }
        })
        .results;
        res[1].as_ref().unwrap().clone().expect("rank 1 reports")
    }

    #[test]
    fn dropped_message_times_out_with_deadline() {
        let msg = dropped_message_failure().to_string();
        assert!(msg.contains("timed out"), "{msg}");
        assert!(msg.contains("message lost"), "{msg}");
    }

    #[test]
    fn dropped_message_yields_structured_timeout() {
        // The blocking receive reports the failure *kind* — no string or
        // elapsed-time matching.
        match dropped_message_failure() {
            RecvFailure::Timeout { src: 0, tag: 4, .. } => {}
            other => panic!("want a structured timeout, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_fault_poisons_payload_once() {
        let res = World::run_resilient(2, 0, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 0 {
                comm.arm_net_fault(NetFault::Corrupt);
            }
            let peer = 1 - comm.rank();
            comm.send(peer, 4, vec![1.0, 2.0], NetPath::DeviceP2P, &c);
            let first = comm.recv(peer, 4, &mut c);
            // Second exchange is clean: faults fire once.
            comm.send(peer, 5, vec![3.0], NetPath::DeviceP2P, &c);
            let second = comm.recv(peer, 5, &mut c);
            (first, second)
        })
        .results;
        let (first, second) = res[1].as_ref().unwrap();
        assert!(first[1].is_nan(), "second half corrupted");
        assert_eq!(first[0], 1.0, "first half intact");
        assert_eq!(second[0], 3.0, "fault disarmed after firing");
        let (clean, _) = res[0].as_ref().unwrap();
        assert_eq!(clean[1], 2.0, "only the armed rank corrupts");
    }

    /// Rank 0 forges a pre-fence (epoch 0) envelope and then sends a
    /// current one on the same tag; rank 1's blocking receive returns
    /// what it delivered and the world's stale-rejection count.
    fn stale_then_fresh_recv() -> (f64, u64) {
        let res = World::run_resilient(2, 0, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 0 {
                comm.advance_epoch();
                comm.force_send_epoch(0);
                comm.send(1, 9, vec![1.0], NetPath::DeviceP2P, &c);
                comm.send(1, 9, vec![2.0], NetPath::DeviceP2P, &c);
                let _ = comm.recv(1, 10, &mut c);
                (0.0, 0)
            } else {
                while comm.epoch() == 0 {
                    std::thread::sleep(Duration::from_micros(100));
                }
                let v = comm.recv(0, 9, &mut c);
                let count = comm.stale_rejected();
                comm.send(0, 10, vec![], NetPath::DeviceP2P, &c);
                (v[0], count)
            }
        })
        .results;
        *res[1].as_ref().unwrap()
    }

    #[test]
    fn legacy_recv_discards_stale_silently() {
        let (fresh, _) = stale_then_fresh_recv();
        assert_eq!(
            fresh, 2.0,
            "blocking recv skips the stale envelope and delivers the fresh one"
        );
    }

    #[test]
    fn stale_epoch_envelope_is_rejected_structured() {
        // A straggler stamped with a pre-fence epoch is never delivered:
        // the receive discards it and the world counts the rejection.
        let (fresh, count) = stale_then_fresh_recv();
        assert_eq!(fresh, 2.0, "the stale envelope was not delivered");
        assert!(count >= 1, "the rejection was counted");
    }

    #[test]
    fn tag_mismatch_panics() {
        // The world keeps the failure contained; the message documents both
        // tags so a protocol bug is diagnosable.
        let res = World::run_resilient(1, 0, |comm| {
            let mut c = ctx(0);
            comm.send(0, 1, vec![1.0], NetPath::DeviceP2P, &c);
            let _ = comm.recv(0, 2, &mut c);
        })
        .results;
        let p = res[0].as_ref().unwrap_err();
        assert!(p.message.contains("tag mismatch"), "{}", p.message);
    }

    #[test]
    fn resilient_run_respawns_after_panic() {
        let out = World::run_resilient(2, 1, |comm| {
            if comm.rank() == 1 && comm.incarnation() == 0 {
                panic!("first life lost");
            }
            (comm.rank(), comm.incarnation())
        });
        assert_eq!(out.results[0].as_ref().unwrap(), &(0, 0));
        assert_eq!(
            out.results[1].as_ref().unwrap(),
            &(1, 1),
            "the replacement incarnation delivers the result"
        );
        assert_eq!(out.respawns.len(), 1);
        assert_eq!(out.respawns[0].rank, 1);
        assert!(out.respawns[0].cause.contains("first life lost"));
    }

    #[test]
    fn resilient_fence_recovers_ring_exchange() {
        let fence_t = scaled_ms(5000);
        let out = World::run_resilient(3, 1, move |comm| {
            let mut c = ctx(comm.rank());
            comm.set_recv_deadline(Some(scaled_ms(300)));
            let exchange = |comm: &Comm, c: &mut DeviceContext| {
                let (lo, hi) = comm.phi_neighbors();
                comm.send(hi, 7, vec![comm.rank() as f64], NetPath::DeviceP2P, c);
                comm.recv(lo, 7, c)[0]
            };
            if comm.incarnation() == 0 {
                if comm.rank() == 2 {
                    panic!("rank 2 lost mid-step");
                }
                // Survivors: the step may or may not fail locally (rank 1's
                // neighbour is alive), but recovery is collective — every
                // survivor abandons the step and meets at the fence.
                let _ = std::panic::catch_unwind(AssertUnwindSafe(|| exchange(&comm, &mut c)));
                let epoch = comm.epoch_fence(fence_t).expect("fence forms");
                assert_eq!(epoch, 1);
                exchange(&comm, &mut c)
            } else {
                // Replacement: join the fence, then redo the step.
                let epoch = comm.epoch_fence(fence_t).expect("fence forms");
                assert_eq!(epoch, 1);
                exchange(&comm, &mut c)
            }
        });
        let got: Vec<f64> = out.results.iter().map(|r| *r.as_ref().unwrap()).collect();
        assert_eq!(got, vec![2.0, 0.0, 1.0], "post-recovery ring is correct");
        assert_eq!(out.respawns.len(), 1);
        assert_eq!(out.epoch, 1, "fence advanced the epoch");
    }

    #[test]
    fn respawn_budget_exhausted_reports_failure() {
        let out = World::run_resilient(2, 0, |comm| {
            if comm.rank() == 1 {
                panic!("boom with no lives left");
            }
            comm.rank()
        });
        assert_eq!(out.results[0].as_ref().unwrap(), &0);
        let p = out.results[1].as_ref().unwrap_err();
        assert!(p.message.contains("boom"), "{}", p.message);
        assert!(out.respawns.is_empty());
    }

    #[test]
    fn world_returns_after_every_rank_thread_has_exited() {
        // A thread's thread-local destructors run as its OS thread exits,
        // after its closure has returned; the world must have joined
        // every rank thread, not just seen its closure finish.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: OnExit = const { OnExit };
        }
        for round in 1..=1000 {
            World::run(2, |_| ON_EXIT.with(|_| ()));
            assert_eq!(EXITED.load(Ordering::SeqCst), 2 * round, "round {round}");
        }
    }

    #[test]
    fn budget_zero_peer_sees_hang_up_before_its_deadline() {
        // The monitor revokes the world when rank 1 dies, so a peer
        // blocked on it fails at once with the typed death; the armed
        // deadline is never what ends the receive.
        let t0 = Instant::now();
        let res = World::run_resilient(2, 0, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 1 {
                panic!("rank 1 died");
            }
            comm.set_recv_deadline(Some(scaled_ms(5000)));
            comm_failure(|| drop(comm.recv(1, 5, &mut c)))
        })
        .results;
        assert_eq!(res[0].as_ref().unwrap(), &RecvFailure::PeerDied { rank: 1, epoch: 0 });
        assert!(t0.elapsed() < scaled_ms(1000), "{:?}", t0.elapsed());
    }

    #[test]
    fn death_after_the_last_respawn_hangs_up_on_peers() {
        // Rank 1 dies in both incarnations. The first death revokes the
        // world and rank 0 goes to the fence; the second has no
        // replacement coming, so the fence fails at once with the typed
        // death instead of waiting out its timeout.
        let t0 = Instant::now();
        let out = World::run_resilient(2, 1, |comm| {
            let mut c = ctx(comm.rank());
            if comm.rank() == 1 {
                panic!("rank 1 lost incarnation {}", comm.incarnation());
            }
            comm.set_recv_deadline(Some(scaled_ms(5000)));
            let died = comm_failure(|| drop(comm.recv(1, 5, &mut c)));
            (died, comm.epoch_fence(scaled_ms(5000)))
        });
        let (died, fence) = out.results[0].as_ref().unwrap();
        assert_eq!(died, &RecvFailure::PeerDied { rank: 1, epoch: 0 });
        assert_eq!(fence, &Err(RecvFailure::PeerDied { rank: 1, epoch: 0 }));
        assert!(t0.elapsed() < scaled_ms(1000), "{:?}", t0.elapsed());
        assert_eq!(out.respawns.len(), 1);
        assert!(out.respawns[0].cause.contains("incarnation 0"));
        let p1 = out.results[1].as_ref().unwrap_err();
        assert!(p1.message.contains("incarnation 1"), "{}", p1.message);
    }
}
