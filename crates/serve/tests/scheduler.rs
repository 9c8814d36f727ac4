//! End-to-end integration tests driven through `Server`'s job API:
//! concurrent scheduling with bit-exact physics, content-addressed
//! cache hits, quota/backpressure rejections, structured bad-deck
//! failures, cooperative cancellation, priority ordering, and rank-death
//! recovery underneath the scheduler.

mod common;

use common::Scratch;
use gpusim::DeviceSpec;
use mas_config::{Deck, FaultKind};
use mas_serve::{JobSpec, JobState, Server, ServerConfig, SubmitError};
use std::sync::Arc;
use std::time::Duration;
use stdpar::CodeVersion;

fn tiny_deck(n_steps: usize) -> Deck {
    let mut d = Deck::preset_quickstart();
    d.time.n_steps = n_steps;
    d.output.hist_interval = 0;
    d
}

fn boot(n_devices: usize, n_workers: usize, max_queue: usize, quota: usize) -> Arc<Server> {
    let mut cfg = ServerConfig::new(DeviceSpec::a100_40gb(), n_devices);
    cfg.n_workers = n_workers;
    cfg.max_queue = max_queue;
    cfg.tenant_quota = quota;
    Server::start(cfg)
}

/// Poll until the job leaves `Queued` (bounded; panics on timeout).
fn await_running(server: &Server, id: mas_serve::JobId) {
    for _ in 0..2000 {
        let s = server.status(id).expect("job exists");
        if s.state != JobState::Queued {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("{id} never started");
}

#[test]
fn concurrent_jobs_finish_bit_exact_to_standalone_runs() {
    // Two different decks in flight at once on a 2-device pool must each
    // produce exactly the state the standalone `mas` path produces.
    let deck_a = tiny_deck(4);
    let deck_b = tiny_deck(6);
    let base_a = mas_mhd::run_supervised(&deck_a, CodeVersion::A, DeviceSpec::a100_40gb(), 1, 7, false)
        .expect("standalone a");
    let base_b =
        mas_mhd::run_supervised(&deck_b, CodeVersion::Ad, DeviceSpec::a100_40gb(), 1, 9, false)
            .expect("standalone b");

    let server = boot(2, 2, 8, 8);
    let ja = server
        .submit(JobSpec::new(deck_a).version(CodeVersion::A).seed(7).tenant("a"))
        .unwrap();
    let jb = server
        .submit(JobSpec::new(deck_b).version(CodeVersion::Ad).seed(9).tenant("b"))
        .unwrap();

    let sa = server.wait(ja).unwrap();
    let sb = server.wait(jb).unwrap();
    assert_eq!(sa.state, JobState::Done, "{:?}", sa.error);
    assert_eq!(sb.state, JobState::Done, "{:?}", sb.error);
    assert_eq!(sa.steps_done, 4);
    assert_eq!(sb.steps_done, 6);

    let ra = server.result(ja).unwrap().unwrap();
    let rb = server.result(jb).unwrap().unwrap();
    assert_eq!(ra.ranks[0].state_hash, base_a.ranks[0].state_hash, "deck a");
    assert_eq!(rb.ranks[0].state_hash, base_b.ranks[0].state_hash, "deck b");

    let stats = server.stats();
    assert_eq!(stats.done, 2);
    assert_eq!(stats.pool.leases_granted, 2);
    assert_eq!(stats.pool.leases_released, 2);
    server.shutdown();
    server.join();
}

#[test]
fn multi_rank_job_is_bit_exact_and_leases_one_device_per_rank() {
    let deck = tiny_deck(4);
    let base = mas_mhd::run_supervised(&deck, CodeVersion::A, DeviceSpec::a100_40gb(), 2, 11, false)
        .expect("standalone 2-rank");

    let server = boot(2, 1, 8, 8);
    let id = server.submit(JobSpec::new(deck).ranks(2).seed(11)).expect("submit");
    let status = server.wait(id).unwrap();
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    let rep = server.result(status.id).unwrap().unwrap();
    assert_eq!(rep.ranks.len(), 2);
    for (a, b) in base.ranks.iter().zip(&rep.ranks) {
        assert_eq!(a.state_hash, b.state_hash, "rank {}", a.rank);
    }
    // Both devices were held at once by the one job.
    assert_eq!(server.stats().pool.peak_busy, 2);
    server.shutdown();
    server.join();
}

#[test]
fn resubmission_is_a_cache_hit_running_zero_steps() {
    let server = boot(1, 1, 8, 8);
    let spec = JobSpec::new(tiny_deck(4)).seed(7).tenant("a");

    let id = server.submit(spec.clone()).unwrap();
    let first = server.wait(id).unwrap();
    assert_eq!(first.state, JobState::Done, "{:?}", first.error);
    assert!(!first.cached);
    let steps_after_first = server.total_steps();
    assert_eq!(steps_after_first, 4, "4 steps on 1 rank");

    // Identical resubmission — even from another tenant at another
    // priority: the run identity is (deck content, version, ranks, seed).
    let id = server.submit(spec.clone().tenant("b").priority(9)).unwrap();
    let second = server.wait(id).unwrap();
    assert_eq!(second.state, JobState::Done);
    assert!(second.cached, "resubmission must be served from the cache");
    assert_eq!(server.total_steps(), steps_after_first, "zero new steps");

    let r1 = server.result(first.id).unwrap().unwrap();
    let r2 = server.result(second.id).unwrap().unwrap();
    assert!(Arc::ptr_eq(&r1, &r2), "cache returns the same report");

    // A genuinely different run (new seed) is a miss and executes.
    let id = server.submit(spec.seed(8)).unwrap();
    let third = server.wait(id).unwrap();
    assert_eq!(third.state, JobState::Done);
    assert!(!third.cached);
    assert_eq!(server.total_steps(), steps_after_first + 4);

    let stats = server.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 2);
    server.shutdown();
    server.join();
}

#[test]
fn quota_and_backpressure_reject_structured() {
    let server = boot(1, 1, 2, 2);
    let long = tiny_deck(100_000); // cancelled below; never runs out

    // Tenant a: one running + one queued = at quota.
    let j1 = server.submit(JobSpec::new(long.clone()).tenant("a").seed(1)).unwrap();
    await_running(&server, j1);
    let j2 = server.submit(JobSpec::new(long.clone()).tenant("a").seed(2)).unwrap();
    assert_eq!(
        server.submit(JobSpec::new(long.clone()).tenant("a").seed(3)),
        Err(SubmitError::QuotaExceeded { tenant: "a".into(), quota: 2 })
    );

    // Tenant b is under quota but fills the queue — then hits backpressure.
    let j3 = server.submit(JobSpec::new(long.clone()).tenant("b").seed(4)).unwrap();
    assert_eq!(
        server.submit(JobSpec::new(long.clone()).tenant("b").seed(5)),
        Err(SubmitError::QueueFull { capacity: 2 })
    );

    // Cancelling a queued job frees its quota and queue slot.
    server.cancel(j2).unwrap();
    assert_eq!(server.status(j2).unwrap().state, JobState::Cancelled);
    let j4 = server.submit(JobSpec::new(long.clone()).tenant("b").seed(5)).unwrap();

    // Cancel the running job cooperatively: it must end Cancelled (not
    // Failed), with the cancellation visible in the error message.
    server.cancel(j1).unwrap();
    let s1 = server.wait(j1).unwrap();
    assert_eq!(s1.state, JobState::Cancelled);
    assert!(
        s1.error.as_deref().unwrap_or("").contains("cancelled"),
        "{:?}",
        s1.error
    );

    for id in [j3, j4] {
        let _ = server.cancel(id);
    }
    server.shutdown();
    server.join();
}

#[test]
fn invalid_deck_and_infeasible_jobs_are_rejected_at_submit() {
    let server = boot(2, 1, 8, 8);

    let mut bad = tiny_deck(4);
    bad.physics.gamma = 5.0;
    match server.submit(JobSpec::new(bad)) {
        Err(SubmitError::InvalidDeck(e)) => {
            assert!(e.problems.iter().any(|p| p.contains("gamma")), "{e}");
            assert!(e.to_string().starts_with("invalid deck:"), "{e}");
        }
        other => panic!("expected InvalidDeck, got {other:?}"),
    }

    assert_eq!(
        server.submit(JobSpec::new(tiny_deck(4)).ranks(3)),
        Err(SubmitError::Infeasible { needed: 3, pool: 2 })
    );
    assert_eq!(
        server.submit(JobSpec::new(tiny_deck(4)).ranks(0)),
        Err(SubmitError::Infeasible { needed: 0, pool: 2 })
    );

    // Nothing was admitted.
    let stats = server.stats();
    assert_eq!((stats.queued, stats.running, stats.done), (0, 0, 0));
    server.shutdown();
    server.join();
}

#[test]
fn higher_priority_queued_job_runs_first() {
    let server = boot(1, 1, 8, 8);
    let long = tiny_deck(100_000);

    let blocker = server.submit(JobSpec::new(long.clone()).seed(1)).unwrap();
    await_running(&server, blocker);
    let low = server.submit(JobSpec::new(long.clone()).seed(2).priority(0)).unwrap();
    let high = server.submit(JobSpec::new(long.clone()).seed(3).priority(5)).unwrap();

    server.cancel(blocker).unwrap();
    assert_eq!(server.wait(blocker).unwrap().state, JobState::Cancelled);

    // The worker must pick the high-priority job even though the
    // low-priority one was submitted earlier.
    await_running(&server, high);
    assert_eq!(server.status(high).unwrap().state, JobState::Running);
    assert_eq!(server.status(low).unwrap().state, JobState::Queued);

    for id in [high, low] {
        let _ = server.cancel(id);
        let _ = server.wait(id);
    }
    server.shutdown();
    server.join();
}

#[test]
fn rank_death_mid_job_recovers_under_the_scheduler() {
    // The supervisor's respawn recovery must work unchanged when the job
    // runs inside the worker pool: a rank is killed mid-run, the
    // replacement restores from the committed checkpoint, and the final
    // state is bit-exact with an undisturbed standalone run.
    let plain = tiny_deck(4);
    let base = mas_mhd::run_supervised(&plain, CodeVersion::Ad, DeviceSpec::a100_40gb(), 2, 17, false)
        .expect("undisturbed baseline");

    let ckpt = Scratch::new("rank_death");
    let mut deck = tiny_deck(4);
    deck.checkpoint.interval = 2;
    deck.checkpoint.dir = ckpt.path().to_string_lossy().into_owned();
    deck.resilience.max_respawns = 1;
    deck.fault.kind = FaultKind::Panic;
    deck.fault.step = 3;
    deck.fault.rank = 1;

    let server = boot(2, 1, 8, 8);
    let id = server
        .submit(JobSpec::new(deck).version(CodeVersion::Ad).ranks(2).seed(17))
        .expect("submit");
    let status = server.wait(id).unwrap();
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    assert!(
        status.recovery_events > 0,
        "the death and restore must be streamed as progress"
    );
    let log = server.recovery_log(status.id).unwrap();
    assert!(
        log.iter().any(|l| l.contains("restored")),
        "recovery log: {log:?}"
    );

    let rep = server.result(status.id).unwrap().unwrap();
    for (a, b) in base.ranks.iter().zip(&rep.ranks) {
        assert_eq!(
            a.state_hash, b.state_hash,
            "rank {}: killed+recovered run must match the undisturbed run",
            a.rank
        );
        assert_eq!(b.steps, 4);
    }
    assert!(rep.ranks[0].recovery.respawns >= 1);
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_cancels_queued_work_and_rejects_new_submissions() {
    let server = boot(1, 1, 8, 8);
    let long = tiny_deck(100_000);
    let running = server.submit(JobSpec::new(long.clone()).seed(1)).unwrap();
    await_running(&server, running);
    let queued = server.submit(JobSpec::new(long.clone()).seed(2)).unwrap();

    server.shutdown();
    assert_eq!(
        server.submit(JobSpec::new(long).seed(3)),
        Err(SubmitError::ShuttingDown)
    );
    let s = server.wait(queued).unwrap();
    assert_eq!(s.state, JobState::Cancelled);
    assert_eq!(s.error.as_deref(), Some("server shutdown"));
    // The running job is asked to stop cooperatively and the workers
    // drain: join() must return.
    server.join();
    assert_eq!(server.status(running).unwrap().state, JobState::Cancelled);
}
