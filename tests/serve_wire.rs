//! `mas_serve`'s wire edge on one persistent connection: each reply line
//! leaves the server in a single write, so request/reply round trips are
//! not held back by Nagle's algorithm waiting for the client's delayed
//! ACK; and hostile input (an unknown verb, a line of invalid UTF-8) is
//! answered with `err` while the connection keeps serving.

mod common;

use common::ChildServer;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 20;

#[test]
fn persistent_connection_replies_without_stalling() {
    let mut server = ChildServer::spawn(&["--devices", "1"]);

    let mut writer = TcpStream::connect(&server.addr).expect("connect");
    writer
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let mut reader = BufReader::new(writer.try_clone().expect("clone stream"));
    let mut request = |line: &[u8]| -> (String, Duration) {
        let t0 = Instant::now();
        writer
            .write_all(&[line, b"\n"].concat())
            .expect("send request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        (reply, t0.elapsed())
    };

    let mut rtts: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|_| {
            let (reply, rtt) = request(b"stats");
            assert!(reply.starts_with("ok devices=1 "), "stats reply {reply:?}");
            rtt
        })
        .collect();
    rtts.sort();
    let median = rtts[ROUND_TRIPS / 2];

    let (reply, _) = request(b"explode please");
    assert!(reply.starts_with("err "), "unknown verb reply {reply:?}");
    let (reply, _) = request(b"\xff\xfe not utf8");
    assert!(reply.starts_with("err "), "bad UTF-8 reply {reply:?}");
    let (reply, _) = request(b"stats");
    assert!(reply.starts_with("ok "), "stats after bad UTF-8: {reply:?}");

    let (reply, _) = request(b"shutdown");
    assert_eq!(reply.trim_end(), "ok shutting-down");
    let status = server.wait();
    assert!(status.success(), "mas_serve exited with {status}");
    assert!(
        median < Duration::from_millis(10),
        "median stats round trip on one connection is {median:?}; all: {rtts:?}"
    );
}
