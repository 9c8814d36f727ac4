//! The job model: one deck submission and its lifecycle. A job runs
//! once: its outcome is the run's, and a failed run ends the job
//! `Failed` with the run's message.

use mas_config::Deck;
use std::fmt;
use stdpar::CodeVersion;

/// Identifier of a submitted job, dense and monotonic per server.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// One deck submission: the run to perform plus its scheduling metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The input deck (validated at submission — see
    /// [`crate::server::SubmitError::InvalidDeck`]).
    pub deck: Deck,
    /// Code version to execute (one of the paper's six).
    pub version: CodeVersion,
    /// Rank count — the job leases this many pool devices for its
    /// lifetime (one rank per device, the paper's deployment shape).
    pub n_ranks: usize,
    /// RNG seed (part of the run's identity, so part of the cache key).
    pub seed: u64,
    /// Scheduling priority: higher runs earlier among queued jobs;
    /// submission order breaks ties.
    pub priority: i32,
    /// Tenant the submission is accounted to (per-tenant quotas).
    pub tenant: String,
}

impl JobSpec {
    /// A defaulted spec for `deck`: version A, one rank, seed 0,
    /// priority 0, tenant `"default"`. The deadline is the deck's
    /// `&serve deadline_ms` (see [`JobSpec::deadline_ms`]).
    pub fn new(deck: Deck) -> Self {
        Self {
            deck,
            version: CodeVersion::A,
            n_ranks: 1,
            seed: 0,
            priority: 0,
            tenant: "default".into(),
        }
    }

    /// Set the code version.
    pub fn version(mut self, v: CodeVersion) -> Self {
        self.version = v;
        self
    }

    /// Set the rank count.
    pub fn ranks(mut self, n: usize) -> Self {
        self.n_ranks = n;
        self
    }

    /// Set the seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Set the priority.
    pub fn priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// Set the tenant.
    pub fn tenant(mut self, t: &str) -> Self {
        self.tenant = t.into();
        self
    }

    /// Set the wall-clock deadline in milliseconds from submission
    /// (0 = none): past it the job is cancelled cooperatively at the
    /// next step boundary, or failed at claim time if it never started.
    /// Stored in the deck's `&serve` section, the one place the server
    /// reads it, so the journal's canonical deck text carries it across
    /// restarts.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deck.serve.deadline_ms = ms;
        self
    }
}

/// Lifecycle phase of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for devices.
    Queued,
    /// Executing on leased devices.
    Running,
    /// Completed successfully (result available).
    Done,
    /// Terminated with an error (message available).
    Failed,
    /// Cancelled — before start, or cooperatively mid-run.
    Cancelled,
}

impl JobState {
    /// True once the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    /// Lower-case name (the wire protocol's `state=` value).
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Point-in-time snapshot of a job, as returned by status queries. The
/// step counter and recovery count advance live while the job runs —
/// this is the progress stream a polling client sees.
#[derive(Clone, Debug)]
pub struct JobStatus {
    /// The job.
    pub id: JobId,
    /// Accounted tenant.
    pub tenant: String,
    /// Current phase.
    pub state: JobState,
    /// Steps completed so far (max over ranks; live while running).
    pub steps_done: usize,
    /// The deck's step target.
    pub n_steps: usize,
    /// Recovery events observed so far (rollbacks + restores).
    pub recovery_events: usize,
    /// True when the result was served from the content-addressed cache
    /// (the job ran zero steps and leased zero devices).
    pub cached: bool,
    /// Terminal error message (`Failed` / `Cancelled`).
    pub error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_terminality_and_names() {
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert_eq!(JobState::Running.name(), "running");
        assert_eq!(JobId(3).to_string(), "job-3");
    }

    #[test]
    fn spec_builder_sets_fields() {
        let s = JobSpec::new(Deck::preset_quickstart())
            .version(CodeVersion::Ad)
            .ranks(2)
            .seed(7)
            .priority(5)
            .tenant("helio")
            .deadline_ms(1500);
        assert_eq!(s.version, CodeVersion::Ad);
        assert_eq!(s.n_ranks, 2);
        assert_eq!(s.seed, 7);
        assert_eq!(s.priority, 5);
        assert_eq!(s.tenant, "helio");
        assert_eq!(s.deck.serve.deadline_ms, 1500);
    }

    #[test]
    fn spec_inherits_deck_serve_section() {
        let mut d = Deck::preset_quickstart();
        d.serve.deadline_ms = 900;
        let s = JobSpec::new(d);
        assert_eq!(s.deck.serve.deadline_ms, 900);
        // `deadline_ms(ms)` overrides the deck's value in place.
        assert_eq!(s.deadline_ms(40).deck.serve.deadline_ms, 40);
    }
}
