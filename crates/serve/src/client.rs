//! The [`RemoteClient`]: the job verbs over the TCP wire protocol, with
//! bounded retry-with-backoff.
//!
//! Retrying a submission is safe *because* submission is idempotent
//! under the cache key: if the first attempt actually reached the
//! server before the connection died, the retry either collapses to a
//! cache hit (run already finished) or enqueues a duplicate that the
//! claim-time cache probe collapses to zero steps. At-least-once
//! delivery therefore costs nothing beyond a duplicate job id.

use crate::job::JobSpec;
use crate::wire::{self, WireRead};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How a [`RemoteClient`] survives transient failures: a bounded number
/// of attempts with exponential backoff between them, plus an I/O
/// deadline per request so a hung server can't pin the caller. Each
/// backoff carries bounded *seeded* jitter (±25%, derived
/// deterministically from `jitter_seed` and the retry index), so a
/// fleet of clients knocked back by the same overload don't re-arrive
/// in lockstep — yet a drill that fixes the seed replays the exact same
/// delays.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles per retry.
    pub base_delay: Duration,
    /// Backoff ceiling (jitter is applied after the cap, so the
    /// effective worst case is `max_delay * 1.25`).
    pub max_delay: Duration,
    /// Read/write deadline per attempt. `None` waits indefinitely
    /// (only sensible for `wait`, which blocks by design).
    pub io_timeout: Option<Duration>,
    /// Seed for the deterministic backoff jitter. Two clients with
    /// different seeds spread out; the same seed replays identically.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_delay: Duration::from_millis(25),
            max_delay: Duration::from_secs(1),
            io_timeout: Some(Duration::from_secs(10)),
            jitter_seed: 0,
        }
    }
}

/// One round of the xorshift64 generator (Marsaglia) — enough
/// statistical spread for backoff jitter without any dependency.
fn xorshift64(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

impl RetryPolicy {
    fn delay(&self, retry: u32) -> Duration {
        let factor = 1u32 << retry.min(10);
        let base = self.base_delay.saturating_mul(factor).min(self.max_delay);
        // Scale by a deterministic factor in [0.75, 1.25): seeded, so a
        // chaos drill that pins the seed reproduces every sleep.
        let r = xorshift64(
            self.jitter_seed ^ (u64::from(retry) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let scale = 0.75 + (r % 1000) as f64 / 2000.0;
        base.mul_f64(scale)
    }
}

/// A TCP client for the `mas_serve` wire protocol: one connection per
/// request (the protocol is one line each way), transparent bounded
/// retry on connect and I/O failures.
#[derive(Clone, Debug)]
pub struct RemoteClient {
    addr: String,
    policy: RetryPolicy,
}

impl RemoteClient {
    /// A client for the server at `addr` (e.g. `127.0.0.1:7070`) with
    /// the default retry policy.
    pub fn connect(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            policy: RetryPolicy::default(),
        }
    }

    /// Override the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Send one request line, return the one response line. Retries
    /// transient failures per the policy; a server-sent `err …` line is
    /// returned as `Ok` (it is an answer, not a transport failure) —
    /// callers split on the `ok `/`err ` prefix.
    pub fn request(&self, line: &str) -> Result<String, String> {
        self.request_with_timeout(line, self.policy.io_timeout)
    }

    /// [`RemoteClient::request`] with an explicit per-attempt deadline
    /// (`None` = block indefinitely — what `wait` needs).
    pub fn request_with_timeout(
        &self,
        line: &str,
        timeout: Option<Duration>,
    ) -> Result<String, String> {
        let mut last_err = String::new();
        let mut retry_after: Option<Duration> = None;
        for retry in 0..self.policy.max_attempts {
            if retry > 0 {
                // An overloaded server named its own comeback time;
                // honor it (still jittered by the policy's backoff, so
                // shed clients don't stampede back as one).
                let backoff = self.policy.delay(retry - 1);
                std::thread::sleep(retry_after.take().map_or(backoff, |ra| ra.max(backoff)));
            }
            match self.attempt(line, timeout) {
                Ok(reply) => {
                    match Self::retry_after_of(&reply) {
                        Some(ra) => {
                            retry_after = Some(ra);
                            last_err = reply;
                        }
                        // Any other server answer — ok or err — is final.
                        None => return Ok(reply),
                    }
                }
                Err(e) => last_err = e,
            }
        }
        Err(format!(
            "request failed after {} attempt(s): {last_err}",
            self.policy.max_attempts
        ))
    }

    /// The retry-after hint in an overload rejection (`err … retry_after_ms=N`),
    /// if this reply carries one.
    fn retry_after_of(reply: &str) -> Option<Duration> {
        if !reply.starts_with("err ") {
            return None;
        }
        let ms: u64 = Self::field(reply, "retry_after_ms").ok()?.parse().ok()?;
        Some(Duration::from_millis(ms))
    }

    fn attempt(&self, line: &str, timeout: Option<Duration>) -> Result<String, String> {
        let stream = TcpStream::connect(&self.addr)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_read_timeout(timeout)
            .and_then(|()| stream.set_write_timeout(timeout))
            .map_err(|e| format!("set deadline: {e}"))?;
        let mut w = &stream;
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .map_err(|e| format!("send: {e}"))?;
        let mut reader = BufReader::new(&stream);
        match wire::read_request_line(&mut reader).map_err(|e| format!("recv: {e}"))? {
            WireRead::Line(reply) => Ok(reply),
            WireRead::Eof => Err("server closed the connection before replying".into()),
            WireRead::TooLong => Err("oversized reply line".into()),
            WireRead::BadUtf8 => Err("non-UTF-8 reply line".into()),
        }
    }

    /// Submit a spec; returns the job id the server assigned.
    pub fn submit(&self, spec: &JobSpec) -> Result<u64, String> {
        let reply = self.request(&wire::encode_submit(spec))?;
        Self::field(&reply, "id")?.parse().map_err(|e| format!("bad id in '{reply}': {e}"))
    }

    /// One status snapshot line (`ok id=… state=… …`).
    pub fn status(&self, id: u64) -> Result<String, String> {
        self.request(&format!("status id={id}"))
    }

    /// Block until the job is terminal; returns its final status line.
    /// No read deadline — waiting is the point.
    pub fn wait(&self, id: u64) -> Result<String, String> {
        self.request_with_timeout(&format!("wait id={id}"), None)
    }

    /// The result summary line for a finished job.
    pub fn result(&self, id: u64) -> Result<String, String> {
        self.request(&format!("result id={id}"))
    }

    /// Cancel a job.
    pub fn cancel(&self, id: u64) -> Result<String, String> {
        self.request(&format!("cancel id={id}"))
    }

    /// Server counters line.
    pub fn stats(&self) -> Result<String, String> {
        self.request("stats")
    }

    /// List quarantined run keys.
    pub fn quarantine_list(&self) -> Result<String, String> {
        self.request("quarantine list")
    }

    /// Clear the quarantine (all keys, or one deck hash).
    pub fn quarantine_clear(&self, deck_hash: Option<u64>) -> Result<String, String> {
        match deck_hash {
            Some(h) => self.request(&format!("quarantine clear hash={h}")),
            None => self.request("quarantine clear"),
        }
    }

    /// Drain the server: intake closes, every queued and running job
    /// finishes, then the server exits. Blocks until the drain
    /// completes (no deadline).
    pub fn drain(&self) -> Result<String, String> {
        self.request_with_timeout("drain", None)
    }

    /// Stop the server immediately (queued jobs are cancelled).
    pub fn shutdown(&self) -> Result<String, String> {
        self.request("shutdown")
    }

    /// Extract `key=value` from a reply line.
    pub fn field(reply: &str, key: &str) -> Result<String, String> {
        reply
            .split_whitespace()
            .find_map(|w| w.strip_prefix(key).and_then(|w| w.strip_prefix('=')))
            .map(str::to_string)
            .ok_or_else(|| format!("no '{key}=' in reply '{reply}'"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_jitter_is_bounded_and_seed_deterministic() {
        let a = RetryPolicy {
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        let b = RetryPolicy {
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        let c = RetryPolicy {
            jitter_seed: 8,
            ..RetryPolicy::default()
        };
        for retry in 0..6 {
            // Same seed → identical delays (a chaos drill replays them).
            assert_eq!(a.delay(retry), b.delay(retry));
            // Jitter stays inside ±25% of the un-jittered schedule.
            let base = a
                .base_delay
                .saturating_mul(1 << retry.min(10))
                .min(a.max_delay);
            let d = a.delay(retry);
            assert!(d >= base.mul_f64(0.75) && d < base.mul_f64(1.25), "{d:?}");
        }
        // Different seeds actually spread (at least one retry differs).
        assert!((0..6).any(|r| a.delay(r) != c.delay(r)));
    }

    #[test]
    fn retry_after_hint_is_parsed_from_err_lines_only() {
        assert_eq!(
            RemoteClient::retry_after_of("err server overloaded retry_after_ms=250"),
            Some(Duration::from_millis(250))
        );
        assert_eq!(
            RemoteClient::retry_after_of("ok id=1 retry_after_ms=250"),
            None
        );
        assert_eq!(RemoteClient::retry_after_of("err queue full"), None);
        assert_eq!(
            RemoteClient::retry_after_of("err bad retry_after_ms=abc"),
            None
        );
    }
}
