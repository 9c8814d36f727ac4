//! Crash-recovery integration tests: the write-ahead journal replayed
//! end-to-end through `Server::recover`.
//!
//! The "crash" here is simulated precisely: a journal is either built by
//! a real server that is then dropped without graceful shutdown (its
//! workers idle — nothing more will be written), or forged/corrupted on
//! disk byte-by-byte. The process-level SIGKILL variant of these checks
//! lives in the root package's `tests/serve_chaos.rs`, which kills a
//! real `mas_serve` child mid-job; these tests pin the replay semantics
//! deterministically.

use gpusim::DeviceSpec;
use mas_config::Deck;
use mas_serve::journal::{self, Journal, Record};
use mas_serve::{JobId, JobSpec, JobState, Server, ServerConfig};
use std::path::PathBuf;
use stdpar::CodeVersion;

fn tiny_deck(n_steps: usize) -> Deck {
    let mut d = Deck::preset_quickstart();
    d.time.n_steps = n_steps;
    d.output.hist_interval = 0;
    d
}

fn cfg(n_devices: usize, n_workers: usize) -> ServerConfig {
    let mut c = ServerConfig::new(DeviceSpec::a100_40gb(), n_devices);
    c.n_workers = n_workers;
    c
}

fn state_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mas_serve_recovery_test").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run `spec` on a throwaway in-memory server and return its rank state
/// hashes — the uninterrupted baseline.
fn baseline_hashes(spec: JobSpec) -> Vec<u64> {
    let server = Server::start(cfg(2, 2));
    let id = server.submit(spec).expect("baseline submit");
    assert_eq!(server.wait(id).unwrap().state, JobState::Done);
    let report = server.result(id).unwrap().expect("baseline result");
    let hashes = report.ranks.iter().map(|r| r.state_hash).collect();
    server.shutdown();
    server.join();
    hashes
}

#[test]
fn forged_interrupted_journal_requeues_and_completes_bit_exact() {
    // Forge the journal a crashed server would leave behind: two jobs
    // accepted, one already claimed by a worker (Started), then death.
    let dir = state_dir("forged_interrupted");
    std::fs::create_dir_all(&dir).unwrap();
    let spec1 = JobSpec::new(tiny_deck(4)).seed(7).priority(1);
    let spec2 = JobSpec::new(tiny_deck(6)).seed(9).version(CodeVersion::Ad);
    {
        let (mut j, _) = Journal::open(dir.join("journal.log")).unwrap();
        j.append(1, &Record::Boot).unwrap();
        j.append(1, &Record::submitted(1, &spec1)).unwrap();
        j.append(1, &Record::submitted(2, &spec2)).unwrap();
        j.append(1, &Record::Started { id: 1 }).unwrap();
        // SIGKILL here: no Done, no CacheInsert.
    }

    let (server, summary) = Server::recover(cfg(2, 2), &dir).expect("recover");
    assert_eq!(summary.epoch, 2);
    assert_eq!(summary.requeued, 2, "queued AND running jobs re-enter the queue");
    assert_eq!(summary.done, 0);
    assert!(summary.torn.is_none());

    for (id, spec) in [(1u64, spec1), (2u64, spec2)] {
        let status = server.wait(JobId(id)).expect("recovered job exists");
        assert_eq!(status.state, JobState::Done, "job {id} finished after recovery");
        let report = server.result(JobId(id)).unwrap().expect("result");
        let got: Vec<u64> = report.ranks.iter().map(|r| r.state_hash).collect();
        assert_eq!(
            got,
            baseline_hashes(spec),
            "job {id}: post-recovery run is bit-exact vs an uninterrupted one"
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn completed_results_survive_restart_as_zero_step_cache_hits() {
    let dir = state_dir("results_survive");
    let spec = JobSpec::new(tiny_deck(5)).seed(42);

    // Life 1: complete a job, then die without any graceful shutdown.
    let hashes_before: Vec<u64> = {
        let (server, _) = Server::recover(cfg(2, 2), &dir).expect("first boot");
        let id = server.submit(spec.clone()).expect("submit");
        assert_eq!(server.wait(id).unwrap().state, JobState::Done);
        let report = server.result(id).unwrap().expect("result");
        report.ranks.iter().map(|r| r.state_hash).collect()
        // Server dropped here: workers idle, journal closed mid-life —
        // exactly what SIGKILL after the last fsync looks like on disk.
    };

    // Life 2: the completion and its result must both be there.
    let (server, summary) = Server::recover(cfg(2, 2), &dir).expect("second boot");
    assert_eq!(summary.done, 1);
    assert_eq!(summary.cache_entries, 1);
    assert_eq!(summary.requeued, 0);

    // The old job id still answers, result intact.
    let report = server.result(JobId(1)).expect("known id").expect("result kept");
    let restored: Vec<u64> = report.ranks.iter().map(|r| r.state_hash).collect();
    assert_eq!(restored, hashes_before, "rehydrated report is bit-identical");

    // A resubmission is a submit-time cache hit: zero steps executed.
    let steps0 = server.total_steps();
    let id = server.submit(spec).expect("resubmit");
    let status = server.wait(id).unwrap();
    assert_eq!(status.state, JobState::Done);
    assert!(status.cached, "served from the recovered cache");
    assert_eq!(server.total_steps(), steps0, "zero steps after restart");
    server.shutdown();
    server.join();
}

#[test]
fn recovery_is_idempotent() {
    let dir = state_dir("idempotent");
    let spec = JobSpec::new(tiny_deck(4)).seed(3);
    {
        let (server, _) = Server::recover(cfg(2, 2), &dir).expect("first boot");
        let id = server.submit(spec).expect("submit");
        assert_eq!(server.wait(id).unwrap().state, JobState::Done);
    }
    // Boot twice more without doing anything: each replay must
    // reconstruct the same state, growing the journal only by its Boot
    // record.
    let (s2, sum2) = Server::recover(cfg(2, 2), &dir).expect("second boot");
    drop(s2);
    let (s3, sum3) = Server::recover(cfg(2, 2), &dir).expect("third boot");
    assert_eq!(sum3.done, sum2.done);
    assert_eq!(sum3.requeued, sum2.requeued);
    assert_eq!(sum3.cache_entries, sum2.cache_entries);
    assert_eq!(sum3.records, sum2.records + 1, "one Boot record per life");
    assert_eq!(sum3.epoch, sum2.epoch + 1);
    drop(s3);
}

#[test]
fn torn_tail_is_truncated_and_valid_prefix_survives() {
    let dir = state_dir("torn_tail");
    let spec = JobSpec::new(tiny_deck(4)).seed(5);
    {
        let (server, _) = Server::recover(cfg(2, 2), &dir).expect("first boot");
        let id = server.submit(spec.clone()).expect("submit");
        assert_eq!(server.wait(id).unwrap().state, JobState::Done);
    }
    // Simulate dying mid-append: a frame header promising more bytes
    // than exist.
    let path = dir.join("journal.log");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.extend_from_slice(&200u32.to_le_bytes());
    bytes.extend_from_slice(b"only a few bytes of the promised record");
    std::fs::write(&path, &bytes).unwrap();

    let (server, summary) = Server::recover(cfg(2, 2), &dir).expect("recover over torn tail");
    assert!(summary.torn.is_some(), "tear reported: {summary}");
    assert!(summary.truncated_bytes > 0);
    assert_eq!(summary.done, 1, "valid prefix fully preserved");
    assert_eq!(summary.cache_entries, 1);
    assert!(server.result(JobId(1)).unwrap().is_ok());
    drop(server);

    // The tail is gone from disk: the next life sees a clean journal.
    let (_, sum2) = Server::recover(cfg(2, 2), &dir).expect("boot after truncation");
    assert!(sum2.torn.is_none(), "tear healed on the previous open");
    assert_eq!(sum2.truncated_bytes, 0);
    assert_eq!(sum2.done, 1);
}

#[test]
fn flipped_byte_never_resurrects_a_record() {
    let dir = state_dir("flipped_byte");
    std::fs::create_dir_all(&dir).unwrap();
    let spec1 = JobSpec::new(tiny_deck(4)).seed(5);
    let spec2 = JobSpec::new(tiny_deck(6)).seed(6);
    {
        let (mut j, _) = Journal::open(dir.join("journal.log")).unwrap();
        j.append(1, &Record::Boot).unwrap();
        j.append(1, &Record::submitted(1, &spec1)).unwrap();
        j.append(1, &Record::submitted(2, &spec2)).unwrap();
    }
    let path = dir.join("journal.log");
    let good = std::fs::read(&path).unwrap();

    // Flip one byte somewhere inside the *second* Submitted record: job
    // 1 must survive, job 2 must be dropped entirely (truncated, not
    // resurrected in mangled form), and recovery must not error.
    let rep = journal::replay(&path).unwrap();
    assert_eq!(rep.records.len(), 3);
    let mut corrupt = good.clone();
    let flip_at = good.len() - 40; // well inside the last record's body
    corrupt[flip_at] ^= 0x01;
    std::fs::write(&path, &corrupt).unwrap();

    let (server, summary) = Server::recover(cfg(2, 2), &dir).expect("recover");
    assert!(summary.torn.is_some());
    assert_eq!(summary.requeued, 1, "only the intact submission replays");
    assert!(server.status(JobId(1)).is_some());
    assert!(server.status(JobId(2)).is_none(), "corrupted record never resurrects");
    assert_eq!(server.wait(JobId(1)).unwrap().state, JobState::Done);
    server.shutdown();
    server.join();
}

#[test]
fn evictions_are_journaled_and_survive_restart() {
    let dir = state_dir("evictions");
    let spec1 = JobSpec::new(tiny_deck(4)).seed(1);
    let spec2 = JobSpec::new(tiny_deck(4)).seed(2);
    {
        let mut c = cfg(2, 2);
        c.cache_max_entries = 1;
        let (server, _) = Server::recover(c, &dir).expect("first boot");
        for spec in [spec1.clone(), spec2.clone()] {
            let id = server.submit(spec).expect("submit");
            assert_eq!(server.wait(id).unwrap().state, JobState::Done);
        }
        let stats = server.stats();
        assert_eq!(stats.cache_entries, 1, "bound enforced live");
        assert_eq!(stats.cache_evictions, 1);
    }

    let mut c = cfg(2, 2);
    c.cache_max_entries = 1;
    let (server, summary) = Server::recover(c, &dir).expect("second boot");
    assert_eq!(summary.cache_entries, 1, "evicted entry stays evicted across restart");
    assert_eq!(summary.done, 2, "both completions survive");
    // Job 2's result is the one still cached; job 1 completed but its
    // report was evicted before the restart — a structured error, not a
    // panic or a silently wrong answer.
    assert!(server.result(JobId(2)).unwrap().is_ok());
    let gone = server.result(JobId(1)).unwrap();
    assert!(gone.is_err(), "evicted result answers structurally: {gone:?}");
    assert!(gone.unwrap_err().contains("evicted"));

    // Resubmitting the evicted deck recomputes (a miss, not a hit).
    let steps0 = server.total_steps();
    let id = server.submit(spec1).expect("resubmit evicted");
    assert_eq!(server.wait(id).unwrap().state, JobState::Done);
    assert!(server.total_steps() > steps0, "evicted result is recomputed");
    server.shutdown();
    server.join();
}

#[test]
fn drain_finishes_everything_and_the_next_life_requeues_nothing() {
    let dir = state_dir("drain");
    let (server, _) = Server::recover(cfg(2, 1), &dir).expect("boot");
    let mut ids = Vec::new();
    for seed in [21u64, 22, 23] {
        ids.push(server.submit(JobSpec::new(tiny_deck(4)).seed(seed)).expect("submit"));
    }
    server.drain();
    server.join();
    for id in ids {
        assert_eq!(server.status(id).unwrap().state, JobState::Done, "{id} finished in drain");
    }
    // Intake is closed once draining.
    assert!(server.submit(JobSpec::new(tiny_deck(4)).seed(99)).is_err());
    drop(server);

    let (_, summary) = Server::recover(cfg(2, 1), &dir).expect("post-drain boot");
    assert_eq!(summary.requeued, 0, "drain left no interrupted work behind");
    assert_eq!(summary.done, 3);
}

#[test]
fn duplicate_recovered_submissions_collapse_at_claim_time() {
    // A client that retried a submit across the crash leaves two
    // Submitted records for the same cache key. After one completes,
    // the duplicate must collapse to a cached Done at claim time,
    // leasing no devices and running zero steps.
    let dir = state_dir("dup_collapse");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = JobSpec::new(tiny_deck(4)).seed(77);
    {
        let (mut j, _) = Journal::open(dir.join("journal.log")).unwrap();
        j.append(1, &Record::Boot).unwrap();
        j.append(1, &Record::submitted(1, &spec)).unwrap();
        j.append(1, &Record::submitted(2, &spec)).unwrap();
    }
    let (server, summary) = Server::recover(cfg(2, 1), &dir).expect("recover");
    assert_eq!(summary.requeued, 2);
    let s1 = server.wait(JobId(1)).unwrap();
    let s2 = server.wait(JobId(2)).unwrap();
    assert_eq!((s1.state, s2.state), (JobState::Done, JobState::Done));
    assert!(
        s1.cached != s2.cached,
        "exactly one of the duplicates actually ran (cached: {} / {})",
        s1.cached,
        s2.cached
    );
    let r1 = server.result(JobId(1)).unwrap().expect("result 1");
    let r2 = server.result(JobId(2)).unwrap().expect("result 2");
    assert_eq!(
        r1.ranks.iter().map(|r| r.state_hash).collect::<Vec<_>>(),
        r2.ranks.iter().map(|r| r.state_hash).collect::<Vec<_>>(),
        "both ids answer with the identical report"
    );
    server.shutdown();
    server.join();
}

#[test]
fn stale_code_rev_cache_entries_are_dropped() {
    // A CacheInsert stamped with another build's code_rev must not be
    // served: the deck reruns instead.
    let dir = state_dir("stale_rev");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = JobSpec::new(tiny_deck(4)).seed(13);
    {
        let (mut j, _) = Journal::open(dir.join("journal.log")).unwrap();
        j.append(1, &Record::Boot).unwrap();
        j.append(1, &Record::submitted(1, &spec)).unwrap();
        j.append(
            1,
            &Record::CacheInsert {
                deck_hash: spec.deck.content_hash(),
                version_tag: "A".into(),
                code_rev: "0.0.0-older-build".into(),
                n_ranks: 1,
                seed: 13,
                report: journal::PersistedReport {
                    version_tag: "A".into(),
                    ranks: vec![],
                },
            },
        )
        .unwrap();
        j.append(1, &Record::Done { id: 1, cached: false }).unwrap();
    }
    let (server, summary) = Server::recover(cfg(2, 1), &dir).expect("recover");
    assert_eq!(summary.dropped_stale_cache, 1);
    assert_eq!(summary.cache_entries, 0);
    // The job is Done but its (stale) result is gone — structured error.
    assert!(server.result(JobId(1)).unwrap().is_err());
    // Resubmission recomputes with this build.
    let id = server.submit(spec).expect("resubmit");
    let status = server.wait(id).unwrap();
    assert_eq!(status.state, JobState::Done);
    assert!(!status.cached, "stale entry was not served");
    server.shutdown();
    server.join();
}

#[test]
fn pool_ledger_is_balanced_after_recovery_while_jobs_rerun() {
    let dir = state_dir("pool_ledger");
    std::fs::create_dir_all(&dir).unwrap();
    let spec = JobSpec::new(tiny_deck(4)).seed(31).ranks(2);
    {
        let (mut j, _) = Journal::open(dir.join("journal.log")).unwrap();
        j.append(1, &Record::Boot).unwrap();
        j.append(1, &Record::submitted(1, &spec)).unwrap();
        // Crashed while holding a 2-device lease.
        j.append(1, &Record::Started { id: 1 }).unwrap();
    }
    let (server, _) = Server::recover(cfg(2, 1), &dir).expect("recover");
    assert_eq!(server.wait(JobId(1)).unwrap().state, JobState::Done);
    let stats = server.stats();
    // Every lease taken after recovery was returned; nothing leaked
    // across the restart boundary.
    assert_eq!(stats.pool.busy, 0);
    assert_eq!(stats.pool.leases_granted, stats.pool.leases_released);
    assert!(stats.pool.leases_granted >= 1, "the rerun actually leased");
    server.shutdown();
    server.join();
}

#[test]
fn quarantine_survives_restart_and_clear_is_journaled() {
    let dir = state_dir("quarantine_survives");
    let mut deck = tiny_deck(4);
    deck.problem = "chaos-panic".into();
    let spec = JobSpec::new(deck).seed(7).max_attempts(1);

    // Life 1: the crash-looping run is quarantined, then the server dies
    // without grace.
    {
        let (server, _) = Server::recover(cfg(2, 2), &dir).expect("first boot");
        let id = server.submit(spec.clone()).expect("submit");
        assert_eq!(server.wait(id).unwrap().state, JobState::Quarantined);
    }

    // Life 2: the quarantine replays from the journal and still refuses
    // the run — the crash loop cannot restart by restarting the server.
    {
        let (server, summary) = Server::recover(cfg(2, 2), &dir).expect("second boot");
        assert_eq!(summary.quarantined, 1, "job restored in Quarantined state");
        assert_eq!(summary.quarantine_keys, 1, "key still embargoed");
        assert_eq!(summary.requeued, 0, "a quarantined job is terminal, not interrupted");
        assert!(
            matches!(
                server.submit(spec.clone()),
                Err(mas_serve::SubmitError::Quarantined { .. })
            ),
            "resubmission refused after restart"
        );
        // Operator lifts it; the clear is itself journaled.
        assert_eq!(server.quarantine_clear(None), 1);
    }

    // Life 3: the clear survives too — the key submits again.
    let (server, summary) = Server::recover(cfg(2, 2), &dir).expect("third boot");
    assert_eq!(summary.quarantine_keys, 0, "cleared quarantine stays cleared");
    server.submit(spec).expect("cleared key accepted after restart");
    server.shutdown();
    server.join();
}

#[test]
fn recovery_checks_the_lease_ledger_before_workers_claim_requeued_jobs() {
    // Workers claim requeued jobs, and lease devices for them, as soon
    // as they start. Many one-step jobs on many workers make a ledger
    // check that runs after the workers start see those leases within a
    // few rounds.
    let dir = state_dir("ledger_race");
    for _round in 0..40 {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        {
            let (mut j, _) = Journal::open(dir.join("journal.log")).unwrap();
            j.append(1, &Record::Boot).unwrap();
            for id in 1..=8u64 {
                j.append(1, &Record::submitted(id, &JobSpec::new(tiny_deck(1)).seed(id)))
                    .unwrap();
            }
        }
        let (server, summary) = Server::recover(cfg(8, 8), &dir).expect("recover");
        assert_eq!(summary.requeued, 8);
        for id in 1..=8 {
            assert_eq!(server.wait(JobId(id)).unwrap().state, JobState::Done);
        }
        server.shutdown();
        server.join();
    }
}
