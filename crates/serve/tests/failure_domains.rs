//! Failure-domain isolation integration tests: crash-loop quarantine, a
//! failing deck charged to its own job, priority load shedding, and job
//! deadlines — each failure contained to its own domain while the rest
//! of the server keeps serving.
//!
//! The process-level soak of the same machinery (SIGKILL restarts,
//! connection chaos, bit-exactness vs an undisturbed baseline) lives in
//! the root package's `tests/serve_chaos.rs`; these tests pin the
//! semantics deterministically in-process.

use gpusim::DeviceSpec;
use mas_config::{Deck, FaultKind};
use mas_serve::{JobSpec, JobState, Server, ServerConfig, SubmitError};
use std::sync::Arc;
use std::time::Duration;

fn tiny_deck(n_steps: usize) -> Deck {
    let mut d = Deck::preset_quickstart();
    d.time.n_steps = n_steps;
    d.output.hist_interval = 0;
    d
}

/// A deck that trips the documented worker-panic failpoint.
fn panic_deck() -> Deck {
    let mut d = tiny_deck(4);
    d.problem = "chaos-panic".into();
    d
}

fn boot_with(f: impl FnOnce(&mut ServerConfig)) -> Arc<Server> {
    let mut cfg = ServerConfig::new(DeviceSpec::a100_40gb(), 2);
    cfg.n_workers = 2;
    f(&mut cfg);
    Server::start(cfg)
}

#[test]
fn panicking_deck_is_quarantined_after_max_attempts_and_others_keep_running() {
    let server = boot_with(|_| {});

    let id = server
        .submit(JobSpec::new(panic_deck()).seed(7).max_attempts(2))
        .expect("submit accepted");
    let status = server.wait(id).expect("job exists");
    assert_eq!(status.state, JobState::Quarantined);
    assert!(
        status.error.as_deref().unwrap_or("").contains("worker panicked"),
        "quarantine names the panic: {:?}",
        status.error
    );
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 2, "both attempts panicked and were contained");
    assert_eq!(stats.quarantined, 1);
    assert_eq!(stats.quarantine_keys, 1);

    // The same run is refused at submit time now — no third crash.
    match server.submit(JobSpec::new(panic_deck()).seed(7)) {
        Err(SubmitError::Quarantined { message }) => {
            assert!(message.contains("worker panicked"), "refusal carries the cause")
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    // A different seed is a different run — not collateral damage.
    let ok = server
        .submit(JobSpec::new(panic_deck()).seed(8).max_attempts(1))
        .expect("different key accepted");
    assert_eq!(server.wait(ok).unwrap().state, JobState::Quarantined);

    // The worker pool survived both crash loops: normal work still runs.
    let normal = server
        .submit(JobSpec::new(tiny_deck(4)).seed(9))
        .expect("normal submit");
    assert_eq!(server.wait(normal).unwrap().state, JobState::Done);

    // Operator clears the quarantine; the key submits again.
    assert_eq!(server.quarantine_list().len(), 2);
    assert_eq!(server.quarantine_clear(None), 2);
    assert!(server.quarantine_list().is_empty());
    server
        .submit(JobSpec::new(panic_deck()).seed(7).max_attempts(1))
        .expect("cleared key accepted again");

    server.shutdown();
    server.join();
}

#[test]
fn a_failing_deck_is_charged_to_its_own_job_not_the_device() {
    let mut cfg = ServerConfig::new(DeviceSpec::a100_40gb(), 1);
    cfg.n_workers = 1;
    let server = Server::start(cfg);

    // A deck that fails its health check on every attempt: a NaN at
    // step 1 with no recoveries allowed.
    let mut bad = tiny_deck(4);
    bad.fault.kind = FaultKind::Nan;
    bad.fault.step = 1;
    bad.checkpoint.max_recoveries = 0;
    let id = server
        .submit(JobSpec::new(bad).tenant("a").max_attempts(3))
        .expect("bad deck accepted");
    let status = server.wait(id).expect("job exists");
    assert_eq!(status.state, JobState::Failed);
    assert!(
        status
            .error
            .as_deref()
            .unwrap_or("")
            .contains("recovery budget exhausted"),
        "failure names the deck's own error: {:?}",
        status.error
    );
    let log = server.recovery_log(id).expect("job exists");
    for attempt in 1..=2 {
        let prefix = format!("attempt {attempt}/3 failed");
        assert!(
            log.iter()
                .any(|l| l.starts_with(&prefix) && l.ends_with("retrying")),
            "attempt {attempt} retried: {log:?}"
        );
    }

    // The only device took all three failures and still serves another
    // tenant's healthy job.
    let ok = server
        .submit(JobSpec::new(tiny_deck(4)).tenant("b"))
        .expect("healthy job accepted on the same device");
    assert_eq!(server.wait(ok).unwrap().state, JobState::Done);

    server.shutdown();
    server.join();
}

#[test]
fn overload_sheds_lowest_priority_and_high_priority_still_completes() {
    let server = boot_with(|cfg| {
        cfg.n_devices = 1;
        cfg.n_workers = 1;
        cfg.max_queue = 8;
        cfg.shed_queue_depth = 2;
        cfg.retry_after_ms = 750;
    });

    // Fill the single worker, then the queue up to the watermark. The
    // blocker must be *claimed* before anything else queues, or the
    // watermark counts it and sheds the wrong job. It never runs out;
    // it is cancelled below.
    let blocker = server
        .submit(JobSpec::new(tiny_deck(100_000)).seed(1).priority(9))
        .expect("blocker");
    for _ in 0..2000 {
        if server.status(blocker).expect("blocker exists").state != JobState::Queued {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    assert_ne!(server.status(blocker).unwrap().state, JobState::Queued);
    let victim = server
        .submit(JobSpec::new(tiny_deck(4)).seed(2).priority(1))
        .expect("victim queued");
    let keeper = server
        .submit(JobSpec::new(tiny_deck(4)).seed(3).priority(3))
        .expect("keeper queued");

    // A higher-priority newcomer displaces the lowest-priority queued
    // job instead of being turned away.
    let high = server
        .submit(JobSpec::new(tiny_deck(4)).seed(4).priority(5))
        .expect("high-priority newcomer accepted under overload");
    let shed = server.status(victim).expect("victim exists");
    assert_eq!(shed.state, JobState::Cancelled);
    let msg = shed.error.as_deref().unwrap_or("");
    assert!(
        msg.contains("shed under overload") && msg.contains("retry after"),
        "victim told why and when: {msg:?}"
    );

    // A lower-priority newcomer is turned away with the retry hint.
    match server.submit(JobSpec::new(tiny_deck(4)).seed(5).priority(0)) {
        Err(SubmitError::Overloaded { retry_after_ms }) => assert_eq!(retry_after_ms, 750),
        other => panic!("expected Overloaded, got {other:?}"),
    }

    // Shedding never touches a running job; free the worker.
    assert_eq!(server.status(blocker).unwrap().state, JobState::Running);
    server.cancel(blocker).unwrap();
    assert_eq!(server.wait(blocker).unwrap().state, JobState::Cancelled);
    for id in [keeper, high] {
        assert_eq!(
            server.wait(id).unwrap().state,
            JobState::Done,
            "{id} completes despite the overload"
        );
    }
    let stats = server.stats();
    assert_eq!(stats.shed_total, 1);
    assert_eq!(stats.cancelled, 2, "the shed victim and the blocker");

    server.shutdown();
    server.join();
}

#[test]
fn deadline_fails_a_running_job_cooperatively() {
    let server = boot_with(|_| {});

    let id = server
        .submit(JobSpec::new(tiny_deck(200_000)).seed(7).deadline_ms(150))
        .expect("submit");
    let status = server.wait(id).expect("job exists");
    assert_eq!(status.state, JobState::Failed);
    assert!(
        status.error.as_deref().unwrap_or("").contains("deadline exceeded"),
        "failure names the deadline: {:?}",
        status.error
    );
    assert!(
        status.steps_done < 200_000,
        "the run was cut short, not completed"
    );
    assert_eq!(server.stats().deadline_exceeded, 1);

    // Deadlines come from the deck's &serve section too.
    let mut deck = tiny_deck(200_000);
    deck.serve.deadline_ms = 150;
    let id = server.submit(JobSpec::new(deck).seed(8)).expect("submit");
    let status = server.wait(id).expect("job exists");
    assert_eq!(status.state, JobState::Failed);

    // The devices the deadlined jobs held are all back.
    let p = server.stats().pool;
    assert_eq!(p.busy, 0, "no leaked leases after deadline failures: {p:?}");

    server.shutdown();
    server.join();
}

#[test]
fn expired_deadline_fails_a_queued_job_without_running_it() {
    let server = boot_with(|cfg| {
        cfg.n_devices = 1;
        cfg.n_workers = 1;
    });

    // The blocker holds the only worker past the queued job's deadline,
    // then is cancelled; the freed worker must fail the queued job in
    // the queue, zero steps run.
    let blocker = server
        .submit(JobSpec::new(tiny_deck(100_000)).seed(1))
        .expect("blocker");
    let doomed = server
        .submit(JobSpec::new(tiny_deck(4)).seed(2).deadline_ms(40))
        .expect("queued");
    std::thread::sleep(Duration::from_millis(100));
    server.cancel(blocker).unwrap();
    let status = server.wait(doomed).expect("job exists");
    assert_eq!(status.state, JobState::Failed);
    assert_eq!(status.steps_done, 0, "never claimed a device");
    assert_eq!(server.wait(blocker).unwrap().state, JobState::Cancelled);

    server.shutdown();
    server.join();
}
