//! Wire-protocol robustness: the request parser and framed line reader
//! must survive arbitrary corruption of otherwise-valid traffic —
//! every single-byte flip and every truncation of every request kind —
//! returning a structured verdict (parsed, rejected, or framed error)
//! and never panicking. A panic here is a remote denial of service: one
//! hostile client killing the connection thread of a shared server.

use mas_config::Deck;
use mas_serve::wire::{self, WireRead};
use mas_serve::JobSpec;
use std::io::Cursor;

/// One valid line of every request kind the protocol knows, including a
/// submit whose deck text exercises the escaping path.
fn corpus() -> Vec<String> {
    let mut deck = Deck::preset_quickstart();
    deck.time.n_steps = 4;
    deck.serve.deadline_ms = 1500;
    let submit = wire::encode_submit(
        &JobSpec::new(deck)
            .tenant("fuzz tenant with spaces")
            .ranks(2)
            .seed(999)
            .priority(-3)
            .deadline_ms(250),
    );
    vec![
        submit,
        "status id=1".into(),
        "wait id=18446744073709551615".into(),
        "result id=2".into(),
        "cancel id=3".into(),
        "stats".into(),
        "drain".into(),
        "shutdown".into(),
    ]
}

/// Feed raw bytes through the framed reader exactly as a connection
/// thread would, then through the parser when a line comes out. Nothing
/// here may panic; the return value only distinguishes outcomes so the
/// happy path can be asserted on the unmutated corpus.
fn drive(bytes: &[u8]) -> &'static str {
    let mut reader = Cursor::new(bytes.to_vec());
    match wire::read_request_line(&mut reader) {
        Ok(WireRead::Line(line)) => match wire::parse_request(&line) {
            Ok(_) => "parsed",
            Err(_) => "rejected",
        },
        Ok(WireRead::Eof) => "eof",
        Ok(WireRead::TooLong) => "too-long",
        Ok(WireRead::BadUtf8) => "bad-utf8",
        Err(_) => "io-error",
    }
}

#[test]
fn unmutated_corpus_parses() {
    for line in corpus() {
        let mut framed = line.clone().into_bytes();
        framed.push(b'\n');
        assert_eq!(drive(&framed), "parsed", "corpus line must parse: {line}");
        assert!(
            wire::parse_request(&line).is_ok(),
            "direct parse must succeed: {line}"
        );
    }
}

#[test]
fn every_single_byte_flip_is_survived() {
    // Masks chosen to hit the interesting corruption classes: a low bit
    // (digit/letter drift), case flip, the high bit (non-ASCII), and
    // full inversion (control bytes, embedded NUL-ish garbage).
    const MASKS: [u8; 4] = [0x01, 0x20, 0x80, 0xFF];
    for line in corpus() {
        let mut framed = line.into_bytes();
        framed.push(b'\n');
        for i in 0..framed.len() {
            for mask in MASKS {
                let mut mutated = framed.clone();
                mutated[i] ^= mask;
                // Any verdict is acceptable; returning is the contract.
                let _ = drive(&mutated);
                // The parser alone must also hold when the corruption
                // survives UTF-8 (the reader may have rejected it).
                if let Ok(text) = std::str::from_utf8(&mutated) {
                    let _ = wire::parse_request(text.trim_end_matches('\n'));
                }
            }
        }
    }
}

#[test]
fn every_truncation_is_survived() {
    for line in corpus() {
        let mut framed = line.into_bytes();
        framed.push(b'\n');
        for len in 0..framed.len() {
            // Truncated mid-line and never terminated: the reader sees
            // EOF with a partial line buffered.
            let _ = drive(&framed[..len]);
            // Truncated but newline-terminated: a short line reaching
            // the parser.
            let mut terminated = framed[..len].to_vec();
            terminated.push(b'\n');
            let _ = drive(&terminated);
        }
    }
}

#[test]
fn hostile_framing_is_survived() {
    // Not derived from valid lines at all: raw garbage frames.
    let cases: Vec<Vec<u8>> = vec![
        vec![],
        vec![b'\n'],
        vec![0u8; 64],
        vec![0xFF; 64],
        b"submit".to_vec(),
        b"submit \xff\xfe tenant=x\n".to_vec(),
        b"status id=not-a-number\n".to_vec(),
        b"wait id=99999999999999999999\n".to_vec(),
        {
            // One byte past the frame cap, no newline in sight.
            vec![b'a'; wire::MAX_LINE + 1]
        },
    ];
    for case in cases {
        let _ = drive(&case);
    }
}
