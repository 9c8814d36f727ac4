//! The line protocol the `mas_serve` TCP binary speaks: one request per
//! line, one response line per request. Text, not binary — debuggable
//! with `nc`, stable to diff in CI logs.
//!
//! Requests:
//!
//! ```text
//! submit tenant=<t> version=<TAG> ranks=<n> seed=<u64> priority=<i32> [deadline=<ms>] [attempts=<n>] deck=<escaped deck text>
//! status id=<n>
//! wait id=<n>
//! cancel id=<n>
//! result id=<n>
//! stats
//! quarantine list
//! quarantine clear [hash=<u64>]
//! drain
//! shutdown
//! ```
//!
//! `deck=` is always the last key: its value is the rest of the line,
//! with newlines and backslashes escaped by [`escape`]. Responses are
//! `ok …` / `err <message>` lines built with the same `key=value`
//! grammar (see the `mas_serve` binary).
//!
//! The server's edge reads request lines through [`read_request_line`],
//! which bounds every line to [`MAX_LINE`] bytes and classifies
//! oversized or non-UTF-8 input as structured [`WireRead`] outcomes —
//! a hostile or broken peer gets an `err …` reply and a closed
//! connection, never an unbounded buffer or a panicked thread.

use crate::job::{JobSpec, JobStatus};
use mas_config::Deck;
use std::io::{self, BufRead};
use stdpar::CodeVersion;

/// Hard cap on one wire line (requests and responses). Generous — the
/// longest legitimate line is a `submit` carrying one escaped deck,
/// well under 64 KiB — while keeping a hostile peer from ballooning
/// server memory one byte at a time.
pub const MAX_LINE: usize = 1 << 20;

/// Escape a multi-line text into a single protocol-safe line token.
pub fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape`].
pub fn unescape(line: &str) -> Result<String, String> {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("bad escape '\\{other}'")),
            None => return Err("dangling backslash".into()),
        }
    }
    Ok(out)
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Submit the job described by the spec.
    Submit(Box<JobSpec>),
    /// Status snapshot.
    Status(u64),
    /// Block until terminal, then status.
    Wait(u64),
    /// Cancel.
    Cancel(u64),
    /// Fetch result summary.
    Result(u64),
    /// Server counters.
    Stats,
    /// List quarantined run keys (crash-loop circuit breaker).
    QuarantineList,
    /// Clear the quarantine: every key, or those matching one deck hash.
    QuarantineClear(Option<u64>),
    /// Stop intake, finish every queued and running job, then stop.
    Drain,
    /// Stop the server.
    Shutdown,
}

/// One bounded read off a wire connection (see [`read_request_line`]).
#[derive(Clone, Debug, PartialEq)]
pub enum WireRead {
    /// A complete line (terminator stripped).
    Line(String),
    /// The peer closed the connection cleanly.
    Eof,
    /// The line exceeded [`MAX_LINE`] before a newline arrived. The
    /// excess has been consumed up to the cap; the connection should be
    /// answered with an error and closed.
    TooLong,
    /// The line was not valid UTF-8.
    BadUtf8,
}

/// Read one request line from `reader`, never buffering more than
/// [`MAX_LINE`] bytes. Unlike `BufRead::read_line`, a peer that sends
/// an endless line (or garbage bytes) costs bounded memory and gets a
/// structured verdict instead of poisoning the stream.
pub fn read_request_line(reader: &mut impl BufRead) -> io::Result<WireRead> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(WireRead::Eof)
            } else {
                // A final line without a terminator still counts.
                Ok(finish_line(line))
            };
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if line.len() + nl > MAX_LINE {
                    reader.consume(nl + 1);
                    return Ok(WireRead::TooLong);
                }
                line.extend_from_slice(&buf[..nl]);
                reader.consume(nl + 1);
                return Ok(finish_line(line));
            }
            None => {
                let n = buf.len();
                if line.len() + n > MAX_LINE {
                    reader.consume(n);
                    return Ok(WireRead::TooLong);
                }
                line.extend_from_slice(buf);
                reader.consume(n);
            }
        }
    }
}

fn finish_line(mut line: Vec<u8>) -> WireRead {
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    match String::from_utf8(line) {
        Ok(s) => WireRead::Line(s),
        Err(_) => WireRead::BadUtf8,
    }
}

/// Parse a code-version tag (`A`, `AD`, …, case-insensitive).
pub fn parse_version(tag: &str) -> Result<CodeVersion, String> {
    CodeVersion::ALL
        .into_iter()
        .find(|v| v.tag().eq_ignore_ascii_case(tag))
        .ok_or_else(|| format!("unknown code version '{tag}'"))
}

fn field<'a>(words: &'a [&str], key: &str) -> Result<&'a str, String> {
    words
        .iter()
        .find_map(|w| w.strip_prefix(key).and_then(|w| w.strip_prefix('=')))
        .ok_or_else(|| format!("missing field '{key}='"))
}

fn opt_field<'a>(words: &'a [&str], key: &str) -> Option<&'a str> {
    words
        .iter()
        .find_map(|w| w.strip_prefix(key).and_then(|w| w.strip_prefix('=')))
}

fn id_of(words: &[&str]) -> Result<u64, String> {
    field(words, "id")?
        .parse()
        .map_err(|e| format!("bad id: {e}"))
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim_end_matches(['\r', '\n']);
    let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
    match verb {
        "submit" => {
            // `deck=` swallows the rest of the line; split it off first
            // so deck text containing spaces survives.
            let (head, deck) = rest
                .split_once("deck=")
                .ok_or("submit needs a deck= field")?;
            let words: Vec<&str> = head.split_whitespace().collect();
            let deck_text = unescape(deck)?;
            let deck = Deck::parse(&deck_text).map_err(|e| e.to_string())?;
            let spec = JobSpec::new(deck)
                .tenant(field(&words, "tenant")?)
                .version(parse_version(field(&words, "version")?)?)
                .ranks(
                    field(&words, "ranks")?
                        .parse()
                        .map_err(|e| format!("bad ranks: {e}"))?,
                )
                .seed(
                    field(&words, "seed")?
                        .parse()
                        .map_err(|e| format!("bad seed: {e}"))?,
                )
                .priority(
                    field(&words, "priority")?
                        .parse()
                        .map_err(|e| format!("bad priority: {e}"))?,
                );
            // Optional serving-policy overrides; absent, the deck's
            // `&serve` section (already parsed above) stands.
            let spec = match opt_field(&words, "deadline") {
                Some(v) => spec
                    .deadline_ms(v.parse().map_err(|e| format!("bad deadline: {e}"))?),
                None => spec,
            };
            let spec = match opt_field(&words, "attempts") {
                Some(v) => spec
                    .max_attempts(v.parse().map_err(|e| format!("bad attempts: {e}"))?),
                None => spec,
            };
            Ok(Request::Submit(Box::new(spec)))
        }
        "status" => Ok(Request::Status(id_of(
            &rest.split_whitespace().collect::<Vec<_>>(),
        )?)),
        "wait" => Ok(Request::Wait(id_of(
            &rest.split_whitespace().collect::<Vec<_>>(),
        )?)),
        "cancel" => Ok(Request::Cancel(id_of(
            &rest.split_whitespace().collect::<Vec<_>>(),
        )?)),
        "result" => Ok(Request::Result(id_of(
            &rest.split_whitespace().collect::<Vec<_>>(),
        )?)),
        "stats" => Ok(Request::Stats),
        "quarantine" => {
            let words: Vec<&str> = rest.split_whitespace().collect();
            match words.first().copied() {
                Some("list") => Ok(Request::QuarantineList),
                Some("clear") => {
                    let hash = match opt_field(&words, "hash") {
                        Some(v) => {
                            Some(v.parse().map_err(|e| format!("bad hash: {e}"))?)
                        }
                        None => None,
                    };
                    Ok(Request::QuarantineClear(hash))
                }
                _ => Err("quarantine needs 'list' or 'clear'".into()),
            }
        }
        "drain" => Ok(Request::Drain),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown request '{other}'")),
    }
}

/// Format a submit line for a spec (what a remote client sends).
pub fn encode_submit(spec: &JobSpec) -> String {
    format!(
        "submit tenant={} version={} ranks={} seed={} priority={} deadline={} attempts={} deck={}",
        spec.tenant,
        spec.version.tag(),
        spec.n_ranks,
        spec.seed,
        spec.priority,
        spec.deadline_ms,
        spec.max_attempts,
        escape(&spec.deck.to_deck_string()),
    )
}

/// Format a status response line.
pub fn encode_status(s: &JobStatus) -> String {
    let mut line = format!(
        "ok id={} state={} steps={}/{} recovery={} cached={}",
        s.id.0,
        s.state.name(),
        s.steps_done,
        s.n_steps,
        s.recovery_events,
        s.cached,
    );
    if let Some(e) = &s.error {
        line.push_str(" error=");
        line.push_str(&escape(e));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobId, JobState};

    #[test]
    fn escape_roundtrips() {
        let text = "line one\nline \\two\r\nthree";
        assert_eq!(unescape(&escape(text)).unwrap(), text);
        assert!(!escape(text).contains('\n'));
        assert!(unescape("bad \\q").is_err());
        assert!(unescape("dangling \\").is_err());
    }

    #[test]
    fn submit_line_roundtrips_the_spec() {
        let spec = JobSpec::new(Deck::preset_quickstart())
            .tenant("helio")
            .version(CodeVersion::Ad2xu)
            .ranks(2)
            .seed(42)
            .priority(-3);
        let line = encode_submit(&spec);
        let Request::Submit(back) = parse_request(&line).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(back.tenant, "helio");
        assert_eq!(back.version, CodeVersion::Ad2xu);
        assert_eq!(back.n_ranks, 2);
        assert_eq!(back.seed, 42);
        assert_eq!(back.priority, -3);
        assert_eq!(
            back.deck.content_hash(),
            spec.deck.content_hash(),
            "deck survives the wire by content"
        );
    }

    #[test]
    fn submit_line_roundtrips_serving_policy() {
        let spec = JobSpec::new(Deck::preset_quickstart())
            .deadline_ms(750)
            .max_attempts(3);
        let Request::Submit(back) = parse_request(&wire_line(&spec)).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(back.deadline_ms, 750);
        assert_eq!(back.max_attempts, 3);
        // Explicit fields beat the deck's &serve section.
        let line = wire_line(&spec).replace("deadline=750", "deadline=123");
        let Request::Submit(back) = parse_request(&line).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!(back.deadline_ms, 123);
        // Without the fields, the &serve section in the deck text stands.
        let bare = format!(
            "submit tenant=t version=A ranks=1 seed=0 priority=0 deck={}",
            escape(&spec.deck.to_deck_string())
        );
        let Request::Submit(back) = parse_request(&bare).unwrap() else {
            panic!("not a submit");
        };
        assert_eq!((back.deadline_ms, back.max_attempts), (750, 3));
    }

    fn wire_line(spec: &JobSpec) -> String {
        encode_submit(spec)
    }

    #[test]
    fn quarantine_requests_parse() {
        assert_eq!(
            parse_request("quarantine list").unwrap(),
            Request::QuarantineList
        );
        assert_eq!(
            parse_request("quarantine clear").unwrap(),
            Request::QuarantineClear(None)
        );
        assert_eq!(
            parse_request("quarantine clear hash=99").unwrap(),
            Request::QuarantineClear(Some(99))
        );
        assert!(parse_request("quarantine").is_err());
        assert!(parse_request("quarantine clear hash=x").is_err());
    }

    #[test]
    fn control_requests_parse() {
        assert_eq!(parse_request("status id=7\n").unwrap(), Request::Status(7));
        assert_eq!(parse_request("wait id=1").unwrap(), Request::Wait(1));
        assert_eq!(parse_request("cancel id=2").unwrap(), Request::Cancel(2));
        assert_eq!(parse_request("result id=3").unwrap(), Request::Result(3));
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("drain").unwrap(), Request::Drain);
        assert_eq!(parse_request("shutdown").unwrap(), Request::Shutdown);
        assert!(parse_request("status id=x").is_err());
        assert!(parse_request("explode").is_err());
        assert!(parse_request("submit tenant=a deck=&grid").is_err());
    }

    #[test]
    fn version_tags_parse_case_insensitively() {
        assert_eq!(parse_version("ad2xu").unwrap(), CodeVersion::Ad2xu);
        assert_eq!(parse_version("D2XAd").unwrap(), CodeVersion::D2xad);
        assert!(parse_version("openacc").is_err());
    }

    #[test]
    fn bounded_reader_returns_lines_then_eof() {
        let mut r = io::Cursor::new(b"stats\r\nwait id=3\nlast".to_vec());
        assert_eq!(
            read_request_line(&mut r).unwrap(),
            WireRead::Line("stats".into())
        );
        assert_eq!(
            read_request_line(&mut r).unwrap(),
            WireRead::Line("wait id=3".into())
        );
        // Unterminated trailing line still delivers, then EOF.
        assert_eq!(
            read_request_line(&mut r).unwrap(),
            WireRead::Line("last".into())
        );
        assert_eq!(read_request_line(&mut r).unwrap(), WireRead::Eof);
    }

    #[test]
    fn bounded_reader_caps_oversized_lines() {
        let mut huge = vec![b'a'; MAX_LINE + 10];
        huge.push(b'\n');
        huge.extend_from_slice(b"stats\n");
        let mut r = io::Cursor::new(huge);
        assert_eq!(read_request_line(&mut r).unwrap(), WireRead::TooLong);
        // The stream stays usable for a well-behaved follow-up...
        // (the server chooses to close instead, but the reader itself
        // resynchronises at the newline).
        assert_eq!(
            read_request_line(&mut r).unwrap(),
            WireRead::Line("stats".into())
        );
    }

    #[test]
    fn bounded_reader_rejects_invalid_utf8() {
        let mut r = io::Cursor::new(b"\xff\xfe garbage\nstats\n".to_vec());
        assert_eq!(read_request_line(&mut r).unwrap(), WireRead::BadUtf8);
        assert_eq!(
            read_request_line(&mut r).unwrap(),
            WireRead::Line("stats".into())
        );
    }

    #[test]
    fn status_line_carries_the_counters() {
        let line = encode_status(&JobStatus {
            id: JobId(4),
            tenant: "t".into(),
            state: JobState::Failed,
            steps_done: 3,
            n_steps: 8,
            recovery_events: 2,
            cached: false,
            error: Some("rank 1: boom\nat step 3".into()),
        });
        assert!(line.starts_with("ok id=4 state=failed steps=3/8 recovery=2 cached=false"));
        assert!(line.contains("error=rank 1: boom\\nat step 3"));
        assert!(!line.contains('\n'));
    }
}
